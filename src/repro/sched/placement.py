"""Node selection policies.

Given the set of free nodes, a placement policy picks the concrete
nodes a job will occupy.  On a homogeneous machine the choice is
irrelevant to the job itself — what it changes is **pool locality**:
with rack-local pools, the racks a job spans determine which pools
absorb its remote memory, so packing versus spreading moves pool
pressure around.  Experiment T4 ablates exactly this.

Policies receive the free nodes as a bitmask (bit *i* set when node *i*
is free, see :mod:`repro.cluster.nodeset`) and return node-id lists in
deterministic order, or ``None`` when they cannot produce a placement
(fewer free nodes than requested).
They never check pool capacity — that is the allocator's job — but
pool-aware policies use the free-capacity hint for *ordering*.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Mapping, Optional

from ..cluster.cluster import Cluster
from ..cluster.nodeset import ids_of, lowest
from ..errors import ConfigurationError

__all__ = [
    "PlacementPolicy",
    "FirstFitPlacement",
    "RackPackPlacement",
    "MinRemotePlacement",
    "SpreadPlacement",
    "placement_for",
]


class PlacementPolicy(abc.ABC):
    """Chooses concrete nodes for a job from the free set."""

    name: str = "abstract"

    #: Does :meth:`select` read the ``pool_free`` hint at all?  Hot
    #: paths skip building the (expensive) windowed pool view for jobs
    #: that need no pool memory when the placement cannot observe it —
    #: decision-invisible by construction.  Policies that order nodes
    #: by pool capacity (min_remote) set this True.
    uses_pool_hint: bool = False

    @abc.abstractmethod
    def select(
        self,
        cluster: Cluster,
        free_mask: int,
        count: int,
        remote_per_node: int,
        pool_free: Optional[Mapping[str, int]] = None,
    ) -> Optional[List[int]]:
        """Pick ``count`` nodes from the bitmask ``free_mask`` or return
        ``None``.

        ``remote_per_node`` and ``pool_free`` are hints for pool-aware
        ordering; capacity enforcement happens in the allocator.
        """

    @staticmethod
    def _by_rack(cluster: Cluster, free_mask: int) -> Dict[int, List[int]]:
        """Free node ids grouped by rack, ascending within each rack."""
        racks: Dict[int, List[int]] = {}
        nodes = cluster.nodes
        for node_id in ids_of(free_mask):
            racks.setdefault(nodes[node_id].rack_id, []).append(node_id)
        return racks


class FirstFitPlacement(PlacementPolicy):
    """Lowest node ids first — the neutral baseline."""

    name = "first_fit"

    def select(self, cluster, free_mask, count, remote_per_node, pool_free=None):
        if free_mask.bit_count() < count:
            return None
        return lowest(free_mask, count)


class RackPackPlacement(PlacementPolicy):
    """Minimize racks spanned: take nodes from the emptiest racks first.

    Jobs concentrated in few racks draw on few rack pools, leaving the
    other racks' pools intact for later jobs — and single-rack jobs
    keep the rack-pool option open at all (a cross-rack job cannot use
    any rack pool as a uniform reach domain).
    """

    name = "rack_pack"

    def select(self, cluster, free_mask, count, remote_per_node, pool_free=None):
        if free_mask.bit_count() < count:
            return None
        racks = self._by_rack(cluster, free_mask)
        # Most free nodes first => fewest racks touched; rack id ties.
        ordered = sorted(racks.items(), key=lambda kv: (-len(kv[1]), kv[0]))
        chosen: List[int] = []
        for _, nodes in ordered:
            take = min(count - len(chosen), len(nodes))
            chosen.extend(nodes[:take])
            if len(chosen) == count:
                return chosen
        return None  # pragma: no cover - guarded by the size check


class MinRemotePlacement(PlacementPolicy):
    """Pool-pressure-aware packing: fill racks with the most free pool.

    Like rack-pack, but rack order follows free *pool* capacity (per
    the hint, falling back to live state), steering remote-hungry jobs
    toward racks that can absorb them.  With no rack pools this
    degrades gracefully to rack-pack ordering.
    """

    name = "min_remote"
    uses_pool_hint = True

    def select(self, cluster, free_mask, count, remote_per_node, pool_free=None):
        if free_mask.bit_count() < count:
            return None
        racks = self._by_rack(cluster, free_mask)

        def rack_pool_free(rack_id: int) -> int:
            pool = cluster.rack(rack_id).pool
            if pool is None:
                return 0
            if pool_free is not None and pool.pool_id in pool_free:
                return pool_free[pool.pool_id]
            return pool.free

        ordered = sorted(
            racks.items(),
            key=lambda kv: (-rack_pool_free(kv[0]), -len(kv[1]), kv[0]),
        )
        chosen: List[int] = []
        for _, nodes in ordered:
            take = min(count - len(chosen), len(nodes))
            chosen.extend(nodes[:take])
            if len(chosen) == count:
                return chosen
        return None  # pragma: no cover - guarded by the size check


class SpreadPlacement(PlacementPolicy):
    """Round-robin across racks — the adversarial baseline.

    Deliberately maximizes racks spanned; with rack-local pools this
    denies jobs the rack-pool fast path and fragments pool usage,
    which is why it exists: T4 quantifies the cost of getting
    placement wrong.
    """

    name = "spread"

    def select(self, cluster, free_mask, count, remote_per_node, pool_free=None):
        if free_mask.bit_count() < count:
            return None
        racks = self._by_rack(cluster, free_mask)
        queues = [list(nodes) for _, nodes in sorted(racks.items())]
        chosen: List[int] = []
        index = 0
        while len(chosen) < count:
            queue = queues[index % len(queues)]
            if queue:
                chosen.append(queue.pop(0))
            index += 1
            if all(not q for q in queues):
                break
        return chosen if len(chosen) == count else None


_POLICIES = {
    "first_fit": FirstFitPlacement,
    "rack_pack": RackPackPlacement,
    "min_remote": MinRemotePlacement,
    "spread": SpreadPlacement,
}


def placement_for(name: str) -> PlacementPolicy:
    cls = _POLICIES.get(name.lower())
    if cls is None:
        raise ConfigurationError(
            f"unknown placement policy {name!r}; choose from {sorted(_POLICIES)}"
        )
    return cls()
