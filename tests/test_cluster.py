"""Tests for the hardware model: spec, node, pool, rack, fabric, cluster."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from repro.cluster import Cluster, ClusterSpec, MemoryPool, NodeSpec, NodeState, PoolSpec
from repro.errors import AllocationError, ConfigurationError
from repro.units import GiB

from ._oracles import OracleOccupancy


class TestSpecs:
    def test_defaults_valid(self):
        ClusterSpec().validate()

    def test_num_racks_ceil(self):
        spec = ClusterSpec(num_nodes=10, nodes_per_rack=4)
        assert spec.num_racks == 3

    def test_totals(self):
        spec = ClusterSpec(
            num_nodes=4,
            nodes_per_rack=2,
            node=NodeSpec(local_mem=10 * GiB),
            pool=PoolSpec(rack_pool=5 * GiB, global_pool=7 * GiB),
        )
        assert spec.total_local_mem == 40 * GiB
        assert spec.total_pool_mem == 2 * 5 * GiB + 7 * GiB
        assert spec.total_mem == spec.total_local_mem + spec.total_pool_mem

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_nodes": 0},
            {"num_nodes": -4},
            {"nodes_per_rack": 0},
        ],
    )
    def test_invalid_counts(self, kwargs):
        with pytest.raises(ConfigurationError):
            ClusterSpec(**kwargs).validate()

    def test_invalid_node(self):
        with pytest.raises(ConfigurationError):
            ClusterSpec(node=NodeSpec(cores=0)).validate()

    def test_invalid_pool(self):
        with pytest.raises(ConfigurationError):
            ClusterSpec(pool=PoolSpec(rack_pool=-1)).validate()

    def test_fat_node_has_no_pool(self):
        spec = ClusterSpec.fat_node(num_nodes=32, local_mem="512GiB")
        assert spec.total_pool_mem == 0
        assert spec.node.local_mem == 512 * GiB
        assert not spec.pool.disaggregated

    def test_thin_node_preserves_total_dram(self):
        fat = ClusterSpec.fat_node(num_nodes=32, local_mem="512GiB")
        thin = ClusterSpec.thin_node(
            num_nodes=32, local_mem="128GiB", fat_local_mem="512GiB",
            pool_fraction=1.0, reach="global",
        )
        assert thin.total_mem == fat.total_mem

    def test_thin_node_pool_fraction_halves_pool(self):
        thin = ClusterSpec.thin_node(
            num_nodes=32, local_mem="128GiB", fat_local_mem="512GiB",
            pool_fraction=0.5, reach="global",
        )
        assert thin.pool.global_pool == 32 * (512 - 128) * GiB // 2

    def test_thin_node_rack_reach_splits_pool(self):
        thin = ClusterSpec.thin_node(
            num_nodes=32, nodes_per_rack=8, local_mem="128GiB",
            fat_local_mem="512GiB", reach="rack",
        )
        assert thin.pool.rack_pool == 32 * (512 - 128) * GiB // 4
        assert thin.pool.global_pool == 0

    def test_thin_node_local_exceeding_fat_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterSpec.thin_node(local_mem="768GiB", fat_local_mem="512GiB")

    def test_thin_node_bad_reach_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterSpec.thin_node(reach="galaxy")

    def test_dict_roundtrip(self):
        spec = ClusterSpec.thin_node(num_nodes=16, nodes_per_rack=4)
        again = ClusterSpec.from_dict(spec.to_dict())
        assert again == spec

    def test_from_dict_parses_mem_strings(self):
        spec = ClusterSpec.from_dict(
            {"num_nodes": 4, "node": {"local_mem": "32GiB"}, "pool": {"global_pool": "1TiB"}}
        )
        assert spec.node.local_mem == 32 * GiB
        assert spec.pool.global_pool == 1024 * GiB


def _ledger_state(cluster):
    """Everything the occupancy ledger exposes, for unchanged-after checks."""
    return (
        cluster.free_mask,
        cluster.down_mask,
        cluster.owners(),
        cluster.snapshot(),
        cluster.version,
    )


class TestLedger:
    """Node occupancy as kept by the cluster's ledger."""

    def test_allocate_release_cycle(self, tiny_cluster):
        assert tiny_cluster.node_state(0) is NodeState.IDLE
        tiny_cluster.allocate_nodes(7, [0], local_grant=8 * GiB)
        assert tiny_cluster.node_state(0) is NodeState.BUSY
        assert tiny_cluster.holder(0) == 7
        assert tiny_cluster.owners() == {0: (7, 8 * GiB)}
        tiny_cluster.release_nodes(7)
        assert tiny_cluster.node_state(0) is NodeState.IDLE
        assert tiny_cluster.holder(0) is None
        assert tiny_cluster.owners() == {}
        assert tiny_cluster.snapshot()["local_mem_granted"] == 0

    def test_double_allocate_rejected(self, tiny_cluster):
        tiny_cluster.allocate_nodes(1, [0], 0)
        before = _ledger_state(tiny_cluster)
        with pytest.raises(AllocationError, match="busy or down"):
            tiny_cluster.allocate_nodes(2, [0], 0)
        assert _ledger_state(tiny_cluster) == before

    def test_release_wrong_owner_rejected(self, tiny_cluster):
        tiny_cluster.allocate_nodes(1, [0], 0)
        before = _ledger_state(tiny_cluster)
        with pytest.raises(AllocationError):
            tiny_cluster.release_nodes(2)
        assert _ledger_state(tiny_cluster) == before

    def test_release_idle_rejected(self, tiny_cluster):
        before = _ledger_state(tiny_cluster)
        with pytest.raises(AllocationError):
            tiny_cluster.release_nodes(1)
        assert _ledger_state(tiny_cluster) == before

    def test_grant_beyond_capacity_rejected(self, tiny_cluster):
        before = _ledger_state(tiny_cluster)
        with pytest.raises(AllocationError):
            tiny_cluster.allocate_nodes(1, [0], 17 * GiB)
        assert _ledger_state(tiny_cluster) == before

    def test_negative_grant_rejected(self, tiny_cluster):
        before = _ledger_state(tiny_cluster)
        with pytest.raises(AllocationError):
            tiny_cluster.allocate_nodes(1, [0], -1)
        assert _ledger_state(tiny_cluster) == before

    def test_down_state(self, tiny_cluster):
        tiny_cluster.take_down(0)
        assert tiny_cluster.node_state(0) is NodeState.DOWN
        assert tiny_cluster.down_mask == 0b0001
        assert tiny_cluster.free_mask == 0b1110
        with pytest.raises(AllocationError, match="busy or down"):
            tiny_cluster.allocate_nodes(1, [0], 0)
        tiny_cluster.bring_up(0)
        assert tiny_cluster.node_state(0) is NodeState.IDLE
        assert tiny_cluster.free_mask == 0b1111

    def test_busy_node_cannot_go_down(self, tiny_cluster):
        tiny_cluster.allocate_nodes(1, [0], 0)
        before = _ledger_state(tiny_cluster)
        with pytest.raises(AllocationError):
            tiny_cluster.take_down(0)
        assert _ledger_state(tiny_cluster) == before

    def test_job_holding_twice_rejected(self, tiny_cluster):
        tiny_cluster.allocate_nodes(1, [0], 0)
        before = _ledger_state(tiny_cluster)
        with pytest.raises(AllocationError, match="already holds"):
            tiny_cluster.allocate_nodes(1, [1], 0)
        assert _ledger_state(tiny_cluster) == before

    def test_version_arithmetic(self, tiny_cluster):
        tiny_cluster.take_down(0)
        tiny_cluster.take_down(0)  # already down: the version still moves
        assert tiny_cluster.version == 2
        tiny_cluster.bring_up(1)  # not down: nothing changes
        assert tiny_cluster.version == 2
        tiny_cluster.bring_up(0)
        assert tiny_cluster.version == 3

    @pytest.mark.parametrize(
        "node_ids",
        [[-1], [4], [0, -1], [3, 4], [0, 10**15], [0, 0], [1, 2, 1], [1.0], ["0"]],
    )
    def test_bad_ids_rejected_before_mutation(self, tiny_cluster, node_ids):
        tiny_cluster.allocate_nodes(9, [3], 0)
        before = _ledger_state(tiny_cluster)
        with pytest.raises(AllocationError):
            tiny_cluster.allocate_nodes(1, node_ids, 0)
        assert _ledger_state(tiny_cluster) == before

    @pytest.mark.parametrize("node_id", [-1, 4, 10**12, 1.0, None])
    def test_bad_id_take_down_bring_up_rejected(self, tiny_cluster, node_id):
        tiny_cluster.take_down(2)
        before = _ledger_state(tiny_cluster)
        for op in (tiny_cluster.take_down, tiny_cluster.bring_up):
            with pytest.raises(AllocationError, match="unknown or repeated"):
                op(node_id)
            assert _ledger_state(tiny_cluster) == before


def _ledger_script(rng, num_nodes, local_mem, pool_capacity, steps):
    """A seeded random mix of ledger calls, valid and invalid."""
    for _ in range(steps):
        kind = rng.choice(
            ["allocate", "allocate", "start", "start", "finish", "finish",
             "release", "take_down", "bring_up"]
        )
        job_id = rng.randrange(1, 7)
        if kind in ("allocate", "start"):
            count = rng.randrange(1, 4)
            if rng.random() < 0.8:
                node_ids = rng.sample(range(num_nodes), count)
            else:  # unknown or repeated ids
                node_ids = [rng.randrange(-1, num_nodes + 1) for _ in range(count)]
            grant = rng.choice([0, local_mem // 2, local_mem])
            if rng.random() < 0.1:
                grant = rng.choice([-1, local_mem + 1])
            yield kind, job_id, node_ids, grant, rng.randrange(pool_capacity)
        elif kind in ("take_down", "bring_up"):
            yield kind, rng.randrange(-1, num_nodes + 1)
        else:
            yield kind, job_id


def _apply(target, step):
    """Run one script step on a Cluster or an OracleOccupancy; returns
    whether it raised.  ``start`` is the engine's start path: nodes,
    then pool, rolling the nodes back when the pool refuses."""
    kind = step[0]
    try:
        if kind == "allocate":
            target.allocate_nodes(step[1], step[2], step[3])
        elif kind == "start":
            _, job_id, node_ids, grant, amount = step
            target.allocate_nodes(job_id, node_ids, grant)
            try:
                _pool_grant(target, job_id, amount)
            except AllocationError:
                target.release_nodes(job_id)
                raise
        elif kind == "finish":
            target.release_nodes(step[1])
            target.release_pool(step[1])
        elif kind == "release":
            target.release_nodes(step[1])
        elif kind == "take_down":
            target.take_down(step[1])
        else:
            target.bring_up(step[1])
    except AllocationError:
        return True
    return False


def _pool_grant(target, job_id, amount):
    if isinstance(target, Cluster):
        target.allocate_pool(job_id, {"global": amount})
    else:
        target.allocate_pool(job_id, amount)


class TestLedgerDifferential:
    """The ledger against the per-node reference model, step by step."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_scripts_agree(self, seed):
        rng = random.Random(seed)
        num_nodes = rng.choice([8, 16, 70])
        spec = ClusterSpec(
            num_nodes=num_nodes,
            nodes_per_rack=4,
            node=NodeSpec(local_mem=16 * GiB),
            pool=PoolSpec(global_pool=40 * GiB),
        )
        cluster = Cluster(spec)
        oracle = OracleOccupancy(num_nodes, 16 * GiB, 40 * GiB)
        script = _ledger_script(rng, num_nodes, 16 * GiB, 40 * GiB, 300)
        raised_any = 0
        for step in script:
            raised = _apply(cluster, step)
            assert raised == _apply(oracle, step), step
            raised_any += raised
            assert cluster.free_mask == oracle.free_mask, step
            assert cluster.version == oracle.version, step
            assert cluster.snapshot() == oracle.snapshot(), step
            for node in oracle.nodes:
                assert cluster.node_state(node.node_id) is node.state
                assert cluster.holder(node.node_id) == node.job_id
            assert cluster.owners() == {
                node.node_id: (node.job_id, node.local_grant)
                for node in oracle.nodes
                if node.job_id is not None
            }
        assert 0 < raised_any < 300  # both outcomes exercised


class TestMemoryPool:
    def test_allocate_release(self):
        pool = MemoryPool("p", 100)
        pool.allocate(1, 40)
        assert pool.used == 40
        assert pool.free == 60
        assert pool.grant_of(1) == 40
        freed = pool.release(1)
        assert freed == 40
        assert pool.used == 0

    def test_additive_grants(self):
        pool = MemoryPool("p", 100)
        pool.allocate(1, 30)
        pool.allocate(1, 20)
        assert pool.grant_of(1) == 50
        assert pool.release(1) == 50

    def test_over_capacity_rejected(self):
        pool = MemoryPool("p", 100)
        pool.allocate(1, 80)
        with pytest.raises(AllocationError):
            pool.allocate(2, 30)
        assert pool.grant_of(2) == 0  # failed alloc left no residue

    def test_zero_allocation_is_noop(self):
        pool = MemoryPool("p", 100)
        pool.allocate(1, 0)
        assert pool.active_jobs == 0
        with pytest.raises(AllocationError):
            pool.release(1)

    def test_release_unknown_job_rejected(self):
        pool = MemoryPool("p", 100)
        with pytest.raises(AllocationError):
            pool.release(99)

    def test_release_if_held(self):
        pool = MemoryPool("p", 100)
        assert pool.release_if_held(1) == 0
        pool.allocate(1, 10)
        assert pool.release_if_held(1) == 10

    def test_negative_allocation_rejected(self):
        pool = MemoryPool("p", 100)
        with pytest.raises(AllocationError):
            pool.allocate(1, -5)

    def test_utilization(self):
        pool = MemoryPool("p", 200)
        pool.allocate(1, 50)
        assert pool.utilization == 0.25
        assert MemoryPool("empty", 0).utilization == 0.0

    @given(
        st.lists(
            st.tuples(st.integers(1, 20), st.integers(0, 30)),
            max_size=50,
        )
    )
    def test_property_conservation(self, ops):
        """Random grant/release interleavings never corrupt accounting."""
        pool = MemoryPool("p", 1000)
        held: dict[int, int] = {}
        for job_id, amount in ops:
            if job_id in held:
                freed = pool.release(job_id)
                assert freed == held.pop(job_id)
            else:
                if amount <= pool.free and amount > 0:
                    pool.allocate(job_id, amount)
                    held[job_id] = amount
            assert pool.used == sum(held.values())
            assert 0 <= pool.used <= pool.capacity


class TestCluster:
    def test_construction_shapes(self, pooled_cluster):
        assert pooled_cluster.num_nodes == 8
        assert pooled_cluster.num_racks == 2
        assert pooled_cluster.rack(0).num_nodes == 4
        assert pooled_cluster.global_pool is not None
        assert all(rack.pool is not None for rack in pooled_cluster.racks)
        assert len(pooled_cluster.all_pools()) == 3

    def test_uneven_last_rack(self):
        spec = ClusterSpec(num_nodes=10, nodes_per_rack=4)
        cluster = Cluster(spec)
        assert [rack.num_nodes for rack in cluster.racks] == [4, 4, 2]
        # Node ids map to the right racks.
        assert cluster.node(9).rack_id == 2

    def test_allocate_release_nodes(self, tiny_cluster):
        tiny_cluster.allocate_nodes(1, [0, 2], local_grant=8 * GiB)
        assert tiny_cluster.free_node_count == 2
        assert tiny_cluster.node_state(0) is NodeState.BUSY
        assert tiny_cluster.node_state(1) is NodeState.IDLE
        tiny_cluster.release_nodes(1)
        assert tiny_cluster.free_node_count == 4

    def test_allocate_nodes_atomic_on_failure(self, tiny_cluster):
        tiny_cluster.allocate_nodes(1, [2], local_grant=0)
        with pytest.raises(AllocationError):
            tiny_cluster.allocate_nodes(2, [0, 1, 2], local_grant=0)
        # Nodes 0 and 1 must not have been taken.
        assert tiny_cluster.node_state(0) is NodeState.IDLE
        assert tiny_cluster.node_state(1) is NodeState.IDLE
        assert tiny_cluster.free_node_count == 3

    def test_free_ids_deterministic_order(self, tiny_cluster):
        tiny_cluster.allocate_nodes(1, [1], local_grant=0)
        assert tiny_cluster.sorted_free_ids() == [0, 2, 3]

    def test_allocate_pool_atomic(self, pooled_cluster):
        # rack0 pool has 64 GiB; ask rack0=50 and global=more than free.
        pooled_cluster.global_pool.allocate(99, 120 * GiB)
        with pytest.raises(AllocationError):
            pooled_cluster.allocate_pool(
                1, {"rack0": 50 * GiB, "global": 20 * GiB}
            )
        assert pooled_cluster.rack(0).pool.grant_of(1) == 0

    def test_release_pool_returns_total(self, pooled_cluster):
        pooled_cluster.allocate_pool(1, {"rack0": 10 * GiB, "global": 5 * GiB})
        freed = pooled_cluster.release_pool(1)
        assert freed == 15 * GiB
        assert pooled_cluster.total_pool_used == 0

    def test_pool_by_id_unknown_raises(self, pooled_cluster):
        with pytest.raises(KeyError):
            pooled_cluster.pool_by_id("rack99")

    def test_snapshot(self, pooled_cluster):
        pooled_cluster.allocate_nodes(1, [0, 1], local_grant=4 * GiB)
        pooled_cluster.allocate_pool(1, {"rack0": 8 * GiB})
        snap = pooled_cluster.snapshot()
        assert snap["free_nodes"] == 6
        assert snap["busy_nodes"] == 2
        assert snap["local_mem_granted"] == 8 * GiB
        assert snap["pool_used"] == 8 * GiB


class TestFabric:
    def test_single_rack_job_reaches_rack_and_global(self, pooled_cluster):
        pools = pooled_cluster.fabric.reachable_pools([0, 1, 2])
        assert [p.pool_id for p in pools] == ["rack0", "global"]

    def test_cross_rack_job_reaches_global_only(self, pooled_cluster):
        pools = pooled_cluster.fabric.reachable_pools([0, 4])
        assert [p.pool_id for p in pools] == ["global"]

    def test_pools_for_node_nearest_first(self, pooled_cluster):
        pools = pooled_cluster.fabric.pools_for_node(5)
        assert [p.pool_id for p in pools] == ["rack1", "global"]

    def test_no_pools_configured(self, tiny_cluster):
        assert tiny_cluster.fabric.pools_for_node(0) == []
        assert tiny_cluster.fabric.reachable_pools([0, 1]) == []
