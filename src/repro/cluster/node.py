"""Compute-node descriptors.

A :class:`Node` is the static hardware description of one compute
node.  Who occupies it is not recorded here: the occupancy ledger in
:class:`~repro.cluster.cluster.Cluster` owns that, as node-id masks
(see :meth:`~repro.cluster.cluster.Cluster.node_state` and
:meth:`~repro.cluster.cluster.Cluster.holder`).
"""

from __future__ import annotations

import enum

__all__ = ["Node", "NodeState"]


class NodeState(enum.Enum):
    IDLE = "idle"
    BUSY = "busy"
    DOWN = "down"


class Node:
    """One exclusively scheduled compute node: id, rack, cores and
    local-memory capacity (MiB).  Immutable after construction."""

    __slots__ = ("node_id", "rack_id", "cores", "local_mem")

    def __init__(self, node_id: int, rack_id: int, cores: int, local_mem: int) -> None:
        self.node_id = node_id
        self.rack_id = rack_id
        self.cores = cores
        self.local_mem = local_mem

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Node(id={self.node_id}, rack={self.rack_id})"
