"""Network topologies: grids, regular meshes, and random geometric graphs.

Graphs are immutable once built: CSR adjacency with sorted, duplicate-free
neighbor lists, plus optional 2D coordinates (meters) for geometric graphs.

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
from .textio import open_text

UNREACHABLE = -1


@dataclass(frozen=True)
class Grid:
    rows: int
    cols: int


@dataclass(frozen=True)
class RegularMesh:
    degree: int  # 3 or 6; degree 4 is Grid
    rows: int
    cols: int


@dataclass(frozen=True)
class RandomGeometric:
    n: int
    width: float
    height: float
    radius: float
    seed: int


TopologySpec = Union[Grid, RegularMesh, RandomGeometric]


class Graph:
    """Undirected graph with sorted neighbor lists, stored in CSR form."""

    __slots__ = ("n", "indptr", "indices", "indices_intp", "degrees", "coords")

    def __init__(self, n: int, edges: np.ndarray, coords: Optional[np.ndarray] = None):
        """Build from an (m, 2) array of edges with u < v, no duplicates."""
        if n < 1:
            raise ValueError("graph needs at least one node")
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if edges.size:
            if edges.min() < 0 or edges.max() >= n:
                raise ValueError("edge endpoint out of range")
            if np.any(edges[:, 0] == edges[:, 1]):
                raise ValueError("self-loops are not allowed")
        both = np.concatenate([edges, edges[:, ::-1]]) if edges.size else edges
        order = np.lexsort((both[:, 1], both[:, 0])) if both.size else np.array([], dtype=np.int64)
        src = both[order, 0] if both.size else np.array([], dtype=np.int64)
        dst = both[order, 1] if both.size else np.array([], dtype=np.int64)
        if src.size and np.any((src[1:] == src[:-1]) & (dst[1:] == dst[:-1])):
            raise ValueError("duplicate edges are not allowed")
        self.n = int(n)
        self.degrees = np.bincount(src, minlength=n).astype(np.int64)
        self.indptr = np.concatenate([[0], np.cumsum(self.degrees)]).astype(np.int64)
        self.indices = dst.astype(np.int32)
        self.indices_intp = dst.astype(np.intp)  # index-ready copy for gather_neighbors
        if coords is not None:
            coords = np.asarray(coords, dtype=np.float64).reshape(n, 2)
            coords.flags.writeable = False
        self.coords = coords
        for arr in (self.indptr, self.indices, self.indices_intp, self.degrees):
            arr.flags.writeable = False

    def neighbors(self, u: int) -> np.ndarray:
        return self.indices[self.indptr[u] : self.indptr[u + 1]]

    @property
    def edge_count(self) -> int:
        return self.indices.size // 2

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


@dataclass(frozen=True)
class DegreeStats:
    min_degree: int
    max_degree: int
    mean_degree: float


def _expand(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Concatenation of the ranges starts[i] .. starts[i] + lens[i] - 1."""
    cum = lens.cumsum()
    return np.arange(int(cum[-1]), dtype=np.int64) + (starts - (cum - lens)).repeat(lens)


def gather_neighbors(g: Graph, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated neighbor lists of `nodes`.

    Returns (targets, senders), both intp: `targets[j]` is a neighbor of
    `senders[j]`, in the order of `nodes` and then CSR order.
    """
    nodes = np.asarray(nodes, dtype=np.intp)
    if not nodes.size:
        return np.array([], dtype=np.intp), np.array([], dtype=np.intp)
    lens = g.degrees[nodes]
    return g.indices_intp[_expand(g.indptr[nodes], lens)], nodes.repeat(lens)


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
    n = spec.n
    u = unit_uniforms(spec.seed, np.arange(2 * n, dtype=np.int64))
    coords = np.column_stack([u[0::2] * spec.width, u[1::2] * spec.height])
    x, y = coords[:, 0], coords[:, 1]
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
    first = np.tile(np.arange(n), 5)
    start = np.concatenate(start)
    lens = np.concatenate(stop) - start
    pieces = []
    block = max(1, 2**22 // max(int(lens.max()), 1))  # <= 2**22 candidates per block
    for i in range(0, lens.size, block):
        part = slice(i, i + block)
        a = order[np.repeat(first[part], lens[part])]
        b = order[_expand(start[part], lens[part])]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        dx = x[lo] - x[hi]
        dy = y[lo] - y[hi]
        close = dx * dx + dy * dy <= r2
        pieces.append(np.column_stack([lo[close], hi[close]]))
    return Graph(n, np.concatenate(pieces), coords)


def build_topology(spec: TopologySpec) -> Graph:
    """Construct the graph described by `spec` (same spec, same graph)."""
    if isinstance(spec, Grid):
        if spec.rows < 1 or spec.cols < 1:
            raise ValueError("grid dimensions must be positive")
        return Graph(spec.rows * spec.cols, _grid_edges(spec.rows, spec.cols))
    if isinstance(spec, RegularMesh):
        if spec.rows < 1 or spec.cols < 1:
            raise ValueError("mesh dimensions must be positive")
        if spec.degree == 6:
            return Graph(spec.rows * spec.cols, _mesh6_edges(spec.rows, spec.cols))
        if spec.degree == 3:
            return Graph(spec.rows * spec.cols, _mesh3_edges(spec.rows, spec.cols))
        raise ValueError("mesh degree must be 3 or 6 (degree 4 is Grid)")
    if isinstance(spec, RandomGeometric):
        if spec.n < 1:
            raise ValueError("node count must be positive")
        if spec.width <= 0 or spec.height <= 0 or spec.radius <= 0:
            raise ValueError("region dimensions and radius must be positive")
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


def degree_stats(g: Graph) -> DegreeStats:
    return DegreeStats(
        min_degree=int(g.degrees.min()),
        max_degree=int(g.degrees.max()),
        mean_degree=float(g.degrees.mean()),
    )


def component_of(g: Graph, source: int) -> np.ndarray:
    """Sorted node ids of the connected component containing `source`."""
    dmap = hop_distances(g, source)
    return np.flatnonzero(dmap.dist != UNREACHABLE)


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
    with open_text(path_or_file, "w") as f:
        f.write(f"n {g.n}\n")
        for u, v in g.edges():
            f.write(f"{u} {v}\n")
        if g.coords is not None:
            for i in range(g.n):
                f.write(f"c {i} {float(g.coords[i, 0])!r} {float(g.coords[i, 1])!r}\n")


def load_edgelist(path_or_file) -> Graph:
    """Read a graph written by `save_edgelist`; round-trips bit-exactly."""
    with open_text(path_or_file) as f:
        text = f.read()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("n "):
        raise ValueError("edge list must start with a 'n <count>' header")
    n = int(lines[0].split()[1])
    edges = []
    coords = None
    for ln in lines[1:]:
        parts = ln.split()
        if parts[0] == "c":
            if coords is None:
                coords = np.zeros((n, 2), dtype=np.float64)
            coords[int(parts[1])] = (float(parts[2]), float(parts[3]))
        else:
            edges.append((int(parts[0]), int(parts[1])))
    return Graph(n, np.array(edges, dtype=np.int64).reshape(-1, 2), coords)
