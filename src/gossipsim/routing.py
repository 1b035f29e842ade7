"""Source-to-destination route requests on top of the propagation engine.

A query succeeds when the destination receives the request directly, or,
with a zone radius, when any node within that many hops of the destination
receives it (zone members know complete routes to each other, so the last
leg is unicast).  Failed attempts are independent retries with fresh child
seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .engine import run_execution
from .protocols import Gossip4, ProtocolSpec
from .rng import child_seed
from .textio import write_rows
from .topology import UNREACHABLE, DistanceMap, Graph, ball_distances, hop_distances


@dataclass(frozen=True)
class RouteQuery:
    source: int
    dest: int
    protocol: ProtocolSpec
    max_attempts: int = 1

    def __post_init__(self):
        if self.source == self.dest:
            raise ValueError("source and destination must differ")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")

    @property
    def zone_radius(self) -> int:
        """The protocol's zone radius for gossip4, else 0."""
        return self.protocol.zone_radius if isinstance(self.protocol, Gossip4) else 0


@dataclass
class RouteResult:
    found: bool
    attempts_used: int
    total_broadcasts: int
    route_length: Optional[int]
    shortest_length: Optional[int]


def query_for(g: Graph, source: int, dest: int, protocol: ProtocolSpec, max_attempts: int = 1) -> RouteQuery:
    """The RouteQuery from `source` to `dest` (`g` is not read)."""
    return RouteQuery(source=source, dest=dest, protocol=protocol, max_attempts=max_attempts)


def discover_route(g: Graph, q: RouteQuery, base_seed: int, dmap: Optional[DistanceMap] = None) -> RouteResult:
    """Run up to max_attempts independent executions, stopping at the first hit.

    `dmap`, the hop distances from `q.source`, saves a BFS per query when the
    caller has it.
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
        got = trace.received[ball_nodes]  # zone members the request reached
        if got.any():
            return RouteResult(
                found=True,
                attempts_used=i + 1,
                total_broadcasts=total,
                route_length=int((trace.hop[ball_nodes[got]] + ball_dist[got]).min()),
                shortest_length=shortest,
            )
    return RouteResult(
        found=False,
        attempts_used=q.max_attempts,
        total_broadcasts=total,
        route_length=None,
        shortest_length=shortest,
    )


def route_results_to_csv(path_or_file, rows: Sequence[tuple[int, int, RouteResult]]) -> None:
    """Rows `src,dst,found,attempts,broadcasts,route_len,shortest_len`."""
    cells = (
        (src, dst, r.found, r.attempts_used, r.total_broadcasts, r.route_length, r.shortest_length)
        for src, dst, r in rows
    )
    write_rows(path_or_file, "src,dst,found,attempts,broadcasts,route_len,shortest_len", cells)
