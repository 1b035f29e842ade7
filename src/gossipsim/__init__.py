"""Deterministic simulator for gossip-based route-request propagation."""

from .engine import ExecutionTrace, iter_batch, run_execution
from .protocols import (
    FLOODING,
    Gossip1,
    Gossip2,
    Gossip3,
    Gossip4,
    ProtocolSpec,
    protocol_name,
)
from .topology import (
    UNREACHABLE,
    DistanceMap,
    Graph,
    Grid,
    RandomGeometric,
    RegularMesh,
    TopologySpec,
    build_topology,
    degree_stats,
    grid_index,
    hop_distances,
    save_edgelist,
)

__all__ = [
    "ExecutionTrace",
    "FLOODING",
    "Gossip1",
    "Gossip2",
    "Gossip3",
    "Gossip4",
    "Graph",
    "Grid",
    "DistanceMap",
    "ProtocolSpec",
    "RandomGeometric",
    "RegularMesh",
    "TopologySpec",
    "UNREACHABLE",
    "build_topology",
    "degree_stats",
    "grid_index",
    "hop_distances",
    "iter_batch",
    "protocol_name",
    "run_execution",
    "save_edgelist",
]

__version__ = "0.1.0"
