"""Node-id bitmasks (``repro.cluster.nodeset``) and the placement
policies that read them.

The policies take the free nodes as a bitmask.  Each one must pick
exactly what the ``frozenset`` algorithm it replaced picked; that
algorithm is kept below as the reference and compared on seeded random
free sets of 64- and 1024-node machines with 16-node racks, for
requests above, equal to and below the free count.
"""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, List, Mapping, Optional

import pytest

from repro.cluster import Cluster, ClusterSpec, NodeSpec, PoolSpec
from repro.cluster.nodeset import ids_of, lowest, mask_of
from repro.sched.placement import placement_for
from repro.units import GiB

POLICIES = ("first_fit", "rack_pack", "min_remote", "spread")


class TestHelpers:
    def test_empty_mask(self):
        assert mask_of(()) == 0
        assert ids_of(0) == []
        assert lowest(0, 3) == []

    @pytest.mark.parametrize("bit", [0, 1, 30, 31, 60, 63, 64, 65, 127, 128,
                                     1023, 5000])
    def test_single_bit_round_trip(self, bit):
        mask = mask_of([bit])
        assert mask == 1 << bit
        assert ids_of(mask) == [bit]
        assert lowest(mask, 1) == [bit]

    @pytest.mark.parametrize("width", [1, 8, 64, 65, 200, 1024])
    def test_round_trip_random(self, width):
        rng = random.Random(width)
        for _ in range(50):
            ids = sorted(rng.sample(range(width), rng.randint(0, width)))
            mask = mask_of(ids)
            assert mask.bit_count() == len(ids)
            assert ids_of(mask) == ids
            assert mask_of(reversed(ids)) == mask

    @pytest.mark.parametrize("width", [64, 1024])
    def test_lowest(self, width):
        rng = random.Random(width + 1)
        for _ in range(50):
            ids = sorted(rng.sample(range(width), rng.randint(1, width)))
            mask = mask_of(ids)
            assert lowest(mask, len(ids)) == ids  # k equal to the popcount
            assert lowest(mask, len(ids) + 5) == ids
            k = rng.randint(0, len(ids))
            assert lowest(mask, k) == ids[:k]

    @pytest.mark.parametrize("width", [64, 1024])
    def test_lowest_small_k(self, width):
        # Small requests are the common case; check every k on both
        # sides of the peel/render switch, including masks that hold
        # fewer ids than asked for.
        rng = random.Random(width + 2)
        for size in (0, 1, 3, 4, 5, 9, width // 2, width):
            ids = sorted(rng.sample(range(width), size))
            mask = mask_of(ids)
            for k in range(10):
                assert lowest(mask, k) == ids[:k]


# -- the frozenset placement algorithms these policies replaced ---------
def _ref_by_rack(cluster: Cluster, free: FrozenSet[int]) -> Dict[int, List[int]]:
    racks: Dict[int, List[int]] = {}
    for node_id in sorted(free):
        racks.setdefault(cluster.nodes[node_id].rack_id, []).append(node_id)
    return racks


def _ref_fill(ordered, count: int) -> Optional[List[int]]:
    chosen: List[int] = []
    for _, nodes in ordered:
        take = min(count - len(chosen), len(nodes))
        chosen.extend(nodes[:take])
        if len(chosen) == count:
            return chosen
    return None


def _ref_select(name: str, cluster: Cluster, free: FrozenSet[int],
                count: int, pool_free: Optional[Mapping[str, int]]):
    if len(free) < count:
        return None
    if name == "first_fit":
        return sorted(free)[:count]
    racks = _ref_by_rack(cluster, free)
    if name == "rack_pack":
        return _ref_fill(
            sorted(racks.items(), key=lambda kv: (-len(kv[1]), kv[0])), count
        )
    if name == "min_remote":
        def rack_pool_free(rack_id: int) -> int:
            pool = cluster.rack(rack_id).pool
            if pool is None:
                return 0
            if pool_free is not None and pool.pool_id in pool_free:
                return pool_free[pool.pool_id]
            return pool.free

        return _ref_fill(
            sorted(racks.items(),
                   key=lambda kv: (-rack_pool_free(kv[0]), -len(kv[1]), kv[0])),
            count,
        )
    assert name == "spread"
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


def _cluster(num_nodes: int) -> Cluster:
    return Cluster(ClusterSpec(
        name=f"placement-{num_nodes}", num_nodes=num_nodes, nodes_per_rack=16,
        node=NodeSpec(cores=8, local_mem=16 * GiB),
        pool=PoolSpec(rack_pool=64 * GiB, global_pool=256 * GiB),
    ))


@pytest.mark.parametrize("num_nodes", [64, 1024])
@pytest.mark.parametrize("name", POLICIES)
def test_select_matches_frozenset_reference(name, num_nodes):
    rng = random.Random(f"{name}-{num_nodes}")
    cluster = _cluster(num_nodes)
    # Uneven live pool levels so min_remote's fallback ordering matters.
    for rack in cluster.racks:
        used = rng.choice((0, 8, 32, 60)) * GiB
        if used:
            rack.pool.allocate(rack.rack_id + 1, used)
    policy = placement_for(name)
    for _ in range(60):
        density = rng.choice((0.05, 0.3, 0.7, 1.0))
        free = frozenset(i for i in range(num_nodes) if rng.random() < density)
        size = len(free)
        hint = None
        if rng.random() < 0.5:
            hint = {pool.pool_id: rng.randint(0, 64) * GiB
                    for pool in cluster.all_pools() if rng.random() < 0.8}
        for count in {0, 1, size - 1, size, size + 1,
                      rng.randint(1, max(1, size))}:
            if count < 0:
                continue
            want = _ref_select(name, cluster, free, count, hint)
            got = policy.select(cluster, mask_of(free), count, 4 * GiB, hint)
            assert got == want, (name, num_nodes, size, count)
