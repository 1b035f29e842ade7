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
    validate_protocol,
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
    load_edgelist,
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
    "load_edgelist",
    "protocol_name",
    "run_execution",
    "save_edgelist",
    "validate_protocol",
]

__version__ = "0.1.0"
