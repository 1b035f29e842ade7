"""Source-to-destination route requests on top of the propagation engine.

A query succeeds when the destination receives the request directly, or,
with a zone radius, when any node within that many hops of the destination
receives it (zone members know complete routes to each other, so the last
leg is unicast).  Failed attempts are independent retries with fresh child
seeds.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .engine import ExecutionTrace, run_execution
from .protocols import Gossip4, ProtocolSpec, validate_protocol
from .rng import child_seed, unit_uniforms
from .textio import open_text
from .topology import UNREACHABLE, DistanceMap, Graph, ball_distances, hop_distances


@dataclass(frozen=True)
class RouteQuery:
    source: int
    dest: int
    protocol: ProtocolSpec
    max_attempts: int = 1
    zone_radius: int = 0

    def __post_init__(self):
        if self.source == self.dest:
            raise ValueError("source and destination must differ")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.zone_radius < 0:
            raise ValueError("zone_radius must be non-negative")
        validate_protocol(self.protocol)


@dataclass
class RouteResult:
    found: bool
    attempts_used: int
    total_broadcasts: int
    route_length: Optional[int]
    shortest_length: Optional[int]


@dataclass(frozen=True)
class AckPlan:
    p_ack: float
    ack_hop: int = 15
    target_acks: float = 5.0


class RetryDecision(enum.Enum):
    CONTINUE_WAITING = "continue_waiting"
    RETRY_NOW = "retry_now"


def query_for(g: Graph, source: int, dest: int, protocol: ProtocolSpec, max_attempts: int = 1) -> RouteQuery:
    """RouteQuery with the zone radius taken from the protocol when it has one."""
    zone = protocol.zone_radius if isinstance(protocol, Gossip4) else 0
    return RouteQuery(source=source, dest=dest, protocol=protocol, max_attempts=max_attempts, zone_radius=zone)


def _delivery(trace: ExecutionTrace, ball_nodes: np.ndarray, ball_dist: np.ndarray) -> Optional[int]:
    """Best route length delivering into the destination's zone, or None."""
    got = trace.received[ball_nodes]
    if not got.any():
        return None
    lengths = trace.hop[ball_nodes[got]] + ball_dist[got]
    return int(lengths.min())


def discover_route(
    g: Graph, q: RouteQuery, base_seed: int, dmap: Optional[DistanceMap] = None
) -> RouteResult:
    """Run up to max_attempts independent executions, stopping at the first hit.

    `dmap`, the hop distances from `q.source` if the caller has them, saves a
    BFS per query.
    """
    if not (0 <= q.dest < g.n):
        raise ValueError(f"destination {q.dest} outside graph of size {g.n}")
    if dmap is None:
        dmap = hop_distances(g, q.source)
    elif dmap.source != q.source or dmap.dist.size != g.n:
        raise ValueError(f"distance map from node {dmap.source} does not fit query source {q.source}")
    shortest = int(dmap.dist[q.dest]) if dmap.dist[q.dest] != UNREACHABLE else None
    ball_nodes, ball_dist = ball_distances(g, q.dest, q.zone_radius)
    total = 0
    for i in range(q.max_attempts):
        trace = run_execution(g, q.source, q.protocol, child_seed(base_seed, i))
        total += trace.broadcast_count
        length = _delivery(trace, ball_nodes, ball_dist)
        if length is not None:
            return RouteResult(
                found=True,
                attempts_used=i + 1,
                total_broadcasts=total,
                route_length=length,
                shortest_length=shortest,
            )
    return RouteResult(
        found=False,
        attempts_used=q.max_attempts,
        total_broadcasts=total,
        route_length=None,
        shortest_length=shortest,
    )


def plan_ack_probability(expected_ring_size: int, target_acks: float = 5.0, ack_hop: int = 15) -> AckPlan:
    """Ack probability giving ~target_acks expected acknowledgments."""
    if expected_ring_size < 0 or target_acks < 0:
        raise ValueError("ring size and target acks must be non-negative")
    p = 1.0 if expected_ring_size == 0 else min(target_acks / expected_ring_size, 1.0)
    return AckPlan(p_ack=p, ack_hop=ack_hop, target_acks=target_acks)


def simulate_ack_count(trace: ExecutionTrace, plan: AckPlan) -> int:
    """Receivers at the ack hop, thinned with p_ack using the run's stream."""
    ackers = np.flatnonzero(trace.received & (trace.hop == plan.ack_hop))
    if not ackers.size:
        return 0
    # ack draws live above the per-node decision streams (indices 0..n-1)
    draws = unit_uniforms(trace.seed, trace.n + ackers)
    return int((draws < plan.p_ack).sum())


def early_retry_decision(acks_received: int, min_acks: int) -> RetryDecision:
    """Retry immediately when too few acks came back in the collection window."""
    if acks_received < min_acks:
        return RetryDecision.RETRY_NOW
    return RetryDecision.CONTINUE_WAITING


def truncated_flood_stats(dmap: DistanceMap, radius: int) -> tuple[int, np.ndarray]:
    """Broadcast count and reach mask of flooding truncated at hop `radius`.

    Nodes at hop >= radius do not forward, so the flood reaches exactly the
    nodes at hop <= radius and every node at hop < radius broadcasts.
    """
    reached = (dmap.dist != UNREACHABLE) & (dmap.dist <= radius)
    broadcasts = int(((dmap.dist != UNREACHABLE) & (dmap.dist < radius)).sum())
    return broadcasts, reached


def expanding_ring_search(
    g: Graph,
    source: int,
    dest: int,
    radii: Sequence[int],
    fallback: ProtocolSpec,
    base_seed: int,
) -> RouteResult:
    """Bounded-radius floods of increasing radius, then a network-wide fallback."""
    if not radii:
        raise ValueError("radii must be non-empty")
    if list(radii) != sorted(radii) or len(set(radii)) != len(radii):
        raise ValueError("radii must be strictly ascending")
    if source == dest:
        raise ValueError("source and destination must differ")
    validate_protocol(fallback)
    dmap = hop_distances(g, source)
    shortest = int(dmap.dist[dest]) if dmap.dist[dest] != UNREACHABLE else None
    total = 0
    attempts = 0
    for r in radii:
        attempts += 1
        broadcasts, reached = truncated_flood_stats(dmap, r)
        total += broadcasts
        if reached[dest]:
            return RouteResult(
                found=True,
                attempts_used=attempts,
                total_broadcasts=total,
                route_length=shortest,
                shortest_length=shortest,
            )
    attempts += 1
    zone = fallback.zone_radius if isinstance(fallback, Gossip4) else 0
    trace = run_execution(g, source, fallback, child_seed(base_seed, len(radii)))
    total += trace.broadcast_count
    ball_nodes, ball_dist = ball_distances(g, dest, zone)
    length = _delivery(trace, ball_nodes, ball_dist)
    return RouteResult(
        found=length is not None,
        attempts_used=attempts,
        total_broadcasts=total,
        route_length=length,
        shortest_length=shortest,
    )


def route_results_to_csv(path_or_file, rows: Sequence[tuple[int, int, RouteResult]]) -> None:
    """Rows `src,dst,found,attempts,broadcasts,route_len,shortest_len`."""
    with open_text(path_or_file, "w") as f:
        f.write("src,dst,found,attempts,broadcasts,route_len,shortest_len\n")
        for src, dst, r in rows:
            rl = "" if r.route_length is None else r.route_length
            sl = "" if r.shortest_length is None else r.shortest_length
            f.write(f"{src},{dst},{int(r.found)},{r.attempts_used},{r.total_broadcasts},{rl},{sl}\n")
