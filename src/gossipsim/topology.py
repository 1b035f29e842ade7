"""Network topologies: grids, regular meshes, and random geometric graphs.

A spec checks its sizes when it is built (ValueError), so `build_topology`
only dispatches.  Graphs are immutable once built: CSR adjacency with sorted,
duplicate-free neighbor lists, plus optional 2D coordinates (meters) for
geometric graphs.

Neighbor gathers read a padded-row (ELLPACK) table beside the CSR arrays:
row v of the n x max-degree table lists v's neighbors in CSR order and pads
the rest with v itself.  One row gather, `table.take(nodes, axis=0)`, then
gathers a whole frontier.  The one rule that makes a pad harmless: every
caller gathers only nodes it has already reached (an engine sender has
received, a BFS frontier node has its level), so a pad is never new.  A
graph whose table would hold more than TABLE_MAX_RATIO times its CSR entries
(a star needs O(n^2)) keeps no table, and its gathers expand CSR ranges,
with no pads.

Mesh constructions (each regular away from the boundary):
  degree 4 -- plain grid, node (r, c) adjacent to (r+-1, c) and (r, c+-1);
  degree 6 -- grid plus one fixed diagonal (r, c)-(r+1, c+1);
  degree 3 -- brick-wall lattice: all horizontal edges, vertical edge
              (r, c)-(r+1, c) only where (r + c) is even.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .rng import unit_uniforms
from .textio import write_rows

UNREACHABLE = -1
# Largest table kept, in multiples of the CSR entries n + 1 + 2m.  Widened
# with pad columns, a table gathered by `take` broke even with CSR gathers
# at about 2.6x on the 300x300 grid (2.4-3.2 over two runs) and 3.1x on the
# 10,000-node RGG, with large frontiers, and above 4x on 100- and 1,000-node
# RGGs; the canned graphs read 0.8-2.1.
TABLE_MAX_RATIO = 3
# Edge keys in at most this many ascending runs sort stable (timsort merges
# runs): 1.5 against 4.7 ms default on the 300x300 grid's 4 runs, but 1.7x on 8
# runs of random keys and 10x on the 10,000-node RGG's 42,619 runs.
_STABLE_MAX_RUNS = 4
_RGG_BLOCK = 2**16  # candidate pairs an RGG build filters at once: its transient memory


@dataclass(frozen=True)
class Grid:
    rows: int
    cols: int

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("grid dimensions must be positive")


@dataclass(frozen=True)
class RegularMesh:
    degree: int  # 3 or 6; degree 4 is Grid
    rows: int
    cols: int

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("mesh dimensions must be positive")
        if self.degree not in (3, 6):
            raise ValueError("mesh degree must be 3 or 6 (degree 4 is Grid)")


@dataclass(frozen=True)
class RandomGeometric:
    n: int
    width: float
    height: float
    radius: float
    seed: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("node count must be positive")
        if not (self.width > 0 and self.height > 0 and self.radius > 0):  # NaN fails too
            raise ValueError("region dimensions and radius must be positive")


TopologySpec = Union[Grid, RegularMesh, RandomGeometric]


class Graph:
    """Undirected graph with sorted neighbor lists, stored in CSR form, and
    the self-padded neighbor `table` (None past TABLE_MAX_RATIO)."""

    __slots__ = ("n", "indptr", "indices", "degrees", "table", "coords")

    def __init__(self, n: int, edges: np.ndarray, coords: Optional[np.ndarray] = None):
        """Build from an (m, 2) array of undirected edges in any order, each given
        once in either orientation: a pair given both ways is a duplicate."""
        if n < 1:
            raise ValueError("graph needs at least one node")
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if edges.size and (edges.min() < 0 or edges.max() >= n):
            raise ValueError("edge endpoint out of range")
        u, v = edges.T
        if np.any(u == v):
            raise ValueError("self-loops are not allowed")
        # One key src * n + dst per directed edge, sorted in place, is the CSR
        # order (n * n fits in int64 for every n below 3 * 10**9).
        key = np.concatenate([u * n + v, v * n + u])
        descents = np.count_nonzero(key[1:] < key[:-1])  # ascending runs - 1
        key.sort(kind="stable" if descents < _STABLE_MAX_RUNS else None)
        if np.any(key[1:] == key[:-1]):
            raise ValueError("duplicate edges are not allowed")
        self.n = int(n)
        self.degrees = np.bincount(edges.ravel(), minlength=n).astype(np.int64, copy=False)
        self.indptr = np.concatenate([[0], np.cumsum(self.degrees)]).astype(np.int64)
        dst = np.remainder(key, n, out=key)  # in place: the build's peak holds no extra copy
        self.indices = dst.astype(np.int32)
        width = int(self.degrees.max())
        self.table = None
        if n * width <= TABLE_MAX_RATIO * (n + 1 + dst.size):
            self.table = np.arange(n, dtype=np.intp).repeat(width).reshape(n, width)
            # row-major fill: each row's first degree slots take its CSR run
            self.table[np.arange(width) < self.degrees[:, None]] = dst
        if coords is not None:
            coords = np.asarray(coords, dtype=np.float64).reshape(n, 2)
            coords.flags.writeable = False
        self.coords = coords
        for arr in (self.indptr, self.indices, self.degrees, self.table):
            if arr is not None:
                arr.flags.writeable = False

    def neighbors(self, u: int) -> np.ndarray:
        return self.indices[self.indptr[u] : self.indptr[u + 1]]

    def edges(self) -> np.ndarray:
        """All edges as an (m, 2) array with u < v, lexicographically sorted."""
        rows = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)
        mask = rows < self.indices
        return np.column_stack([rows[mask], self.indices[mask]])


@dataclass(frozen=True)
class DistanceMap:
    """Hop distances from a source node; UNREACHABLE marks other components."""

    source: int
    dist: np.ndarray

    @property
    def max_distance(self) -> int:
        reach = self.dist[self.dist != UNREACHABLE]
        return int(reach.max()) if reach.size else 0

    def counts(self) -> np.ndarray:
        """Node count at each distance 0..max_distance."""
        reach = self.dist[self.dist != UNREACHABLE]
        return np.bincount(reach, minlength=self.max_distance + 1)


def _expand(ends: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Concatenation of the ranges ends[i] - lens[i] .. ends[i] - 1."""
    cum = lens.cumsum()
    return (ends - cum).repeat(lens) + np.arange(int(cum[-1]))


def gather_neighbors(g: Graph, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated (self-padded) neighbor lists of `nodes`.

    Returns (targets, senders), both intp: `targets[j]` is a neighbor of
    `senders[j]` or, as a pad, the sender itself, in the order of `nodes` and
    then CSR order.  With a table each node gets max-degree entries, its
    neighbors then pads; without one there are no pads.  Either way each real
    pair comes once per occurrence of its sender in `nodes`.
    """
    nodes = np.asarray(nodes, dtype=np.intp)
    if g.table is not None:
        # the method form of take: a row gather without fancy indexing's setup
        return g.table.take(nodes, axis=0).ravel(), nodes.repeat(g.table.shape[1])
    if not nodes.size:
        return nodes[:0], nodes[:0]
    lens = g.degrees[nodes]
    return g.indices[_expand(g.indptr[1:][nodes], lens)].astype(np.intp), nodes.repeat(lens)


def grid_index(rows: int, cols: int, r: int, c: int) -> int:
    """Node id of grid/mesh position (r, c) in row-major order."""
    if not (0 <= r < rows and 0 <= c < cols):
        raise ValueError(f"({r}, {c}) outside {rows}x{cols}")
    return r * cols + c


def _grid_edges(rows: int, cols: int) -> np.ndarray:
    ids = np.arange(rows * cols, dtype=np.int64).reshape(rows, cols)
    right = np.column_stack([ids[:, :-1].ravel(), ids[:, 1:].ravel()])
    down = np.column_stack([ids[:-1, :].ravel(), ids[1:, :].ravel()])
    return np.concatenate([right, down])


def _mesh6_edges(rows: int, cols: int) -> np.ndarray:
    ids = np.arange(rows * cols, dtype=np.int64).reshape(rows, cols)
    diag = np.column_stack([ids[:-1, :-1].ravel(), ids[1:, 1:].ravel()])
    return np.concatenate([_grid_edges(rows, cols), diag])


def _mesh3_edges(rows: int, cols: int) -> np.ndarray:
    ids = np.arange(rows * cols, dtype=np.int64).reshape(rows, cols)
    horiz = np.column_stack([ids[:, :-1].ravel(), ids[:, 1:].ravel()])
    rr, cc = np.meshgrid(np.arange(rows - 1), np.arange(cols), indexing="ij")
    keep = (rr + cc) % 2 == 0
    vert = np.column_stack([ids[:-1, :][keep], ids[1:, :][keep]])
    return np.concatenate([horiz, vert])


def _rgg(spec: RandomGeometric) -> Graph:
    u = unit_uniforms(spec.seed, np.arange(2 * spec.n, dtype=np.int64))
    coords = np.column_stack([u[0::2] * spec.width, u[1::2] * spec.height])
    return Graph(spec.n, _rgg_pairs(spec, coords[:, 0], coords[:, 1]), coords)


def _rgg_pairs(spec: RandomGeometric, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The (m, 2) pairs of points within the radius, each once; its arrays die on return."""
    n = spec.n
    r2 = spec.radius * spec.radius
    # Cell list: a pair within `radius` lies in one cell or in two adjacent
    # cells.  The 2**-20 margin keeps that true under rounding in x / side;
    # the lower bound on the side caps each axis at 2**24 cells, so cell ids
    # stay far from int64 overflow in a huge sparse region.
    side = max(spec.radius * (1 + 2**-20), max(spec.width, spec.height) * 2**-24)
    cx = np.floor(x / side).astype(np.int64)
    cy = np.floor(y / side).astype(np.int64)
    rows = int(cy.max()) + 2  # row rows - 1 stays empty, so cy +- 1 never wraps
    cell = cx * rows + cy
    order = np.argsort(cell)
    cell = cell[order]
    # Each point meets the later points of its own cell and every point of
    # four neighbour cells, (cx, cy+1) and (cx+1, cy-1..cy+1): half the
    # neighbourhood, so each pair comes once.
    start = [np.arange(1, n + 1)]
    stop = [np.searchsorted(cell, cell, "right")]
    for offset in (1, rows - 1, rows, rows + 1):
        start.append(np.searchsorted(cell, cell + offset, "left"))
        stop.append(np.searchsorted(cell, cell + offset, "right"))
    stop = np.concatenate(stop)
    lens = stop - np.concatenate(start)
    ends = lens.cumsum()
    pieces, i = [], 0
    while i < lens.size:  # entries i..j-1: at most _RGG_BLOCK candidates, or one entry
        j = max(i + 1, int(np.searchsorted(ends, ends[i] - lens[i] + _RGG_BLOCK, "right")))
        part = slice(i, j)
        a = order[np.repeat(np.arange(i, j) % n, lens[part])]  # entry e is point e % n
        b = order[_expand(stop[part], lens[part])]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        close = np.square(x[lo] - x[hi]) + np.square(y[lo] - y[hi]) <= r2
        pieces.append(np.column_stack([lo[close], hi[close]]))
        i = j
    return np.concatenate(pieces)


def build_topology(spec: TopologySpec) -> Graph:
    """Construct the graph described by `spec` (same spec, same graph)."""
    if isinstance(spec, Grid):
        return Graph(spec.rows * spec.cols, _grid_edges(spec.rows, spec.cols))
    if isinstance(spec, RegularMesh):
        edges = _mesh6_edges if spec.degree == 6 else _mesh3_edges
        return Graph(spec.rows * spec.cols, edges(spec.rows, spec.cols))
    if isinstance(spec, RandomGeometric):
        return _rgg(spec)
    raise TypeError(f"unknown topology spec: {spec!r}")


def _check_node(g: Graph, u: int) -> None:
    if not (0 <= u < g.n):
        raise ValueError(f"node {u} outside graph of size {g.n}")


def _distinct(values: np.ndarray, slot: np.ndarray) -> np.ndarray:
    """Each entry of `values` once, in no set order.

    `slot` is scratch space indexed by value: of the positions written for a
    repeated value one is kept, so exactly one copy of it survives.
    """
    pos = np.arange(values.size)
    slot[values] = pos
    return values[slot[values] == pos]


def _levels(g: Graph, sources: np.ndarray, radius: Optional[int]) -> np.ndarray:
    """Hops from the nearest of `sources`, UNREACHABLE beyond `radius` (None: no bound)."""
    level = np.full(g.n, UNREACHABLE, dtype=np.int32)
    level[sources] = 0
    slot = np.empty(g.n, dtype=np.intp)
    frontier = sources
    d = 0
    while frontier.size and (radius is None or d < radius):
        targets, _ = gather_neighbors(g, frontier)
        frontier = _distinct(targets[level[targets] == UNREACHABLE], slot)
        d += 1
        level[frontier] = d
    return level


def hop_distances(g: Graph, source: int) -> DistanceMap:
    """Breadth-first hop distances from `source`."""
    _check_node(g, source)
    dist = _levels(g, np.array([source], dtype=np.intp), None)
    dist.flags.writeable = False
    return DistanceMap(source=int(source), dist=dist)


def ball_distances(g: Graph, center: int, radius: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes within `radius` hops of `center` and their hop distances."""
    _check_node(g, center)
    if radius < 0:
        raise ValueError("radius must be non-negative")
    dist = _levels(g, np.array([center], dtype=np.intp), radius)
    nodes = np.flatnonzero(dist != UNREACHABLE)
    return nodes, dist[nodes]


def zone_levels(g: Graph, received: np.ndarray, radius: int) -> np.ndarray:
    """Hops from each node to the nearest receiver, UNREACHABLE beyond `radius`.

    Receivers read 0, so `level >= 0` is the zone-covered set and
    `level[level > 0].sum()` counts one unicast per hop from the nearest
    receiver to every covered non-receiver.
    """
    return _levels(g, np.flatnonzero(received), radius)


def save_edgelist(g: Graph, path_or_file) -> None:
    """Write the plain-text edge-list format (`n`, `u v`, optional `c` lines)."""
    rows = g.edges().tolist()
    if g.coords is not None:
        rows += [("c", i, x, y) for i, (x, y) in enumerate(g.coords.tolist())]
    write_rows(path_or_file, f"n {g.n}", rows, sep=" ")
