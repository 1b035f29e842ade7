import hashlib
import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gossipsim import (
    UNREACHABLE,
    Graph,
    Grid,
    RandomGeometric,
    RegularMesh,
    build_topology,
    component_of,
    degree_stats,
    grid_index,
    hop_distances,
    load_edgelist,
    save_edgelist,
)
from gossipsim.rng import unit_uniforms
from gossipsim.topology import ball_distances, gather_neighbors, zone_levels

from conftest import random_graph


def test_grid_20x50_shape():
    g = build_topology(Grid(20, 50))
    assert g.n == 1000
    stats = degree_stats(g)
    assert stats.min_degree == 2 and stats.max_degree == 4
    # direct count: 4 corners of degree 2, 2*48+2*18 edge nodes of degree 3,
    # 18*48 interior nodes of degree 4
    expected = (4 * 2 + (2 * 48 + 2 * 18) * 3 + 18 * 48 * 4) / 1000
    assert stats.mean_degree == pytest.approx(expected)
    assert expected == pytest.approx(3.86)


def test_grid_1x1():
    g = build_topology(Grid(1, 1))
    assert g.n == 1 and g.edge_count == 0
    stats = degree_stats(g)
    assert stats.min_degree == stats.max_degree == 0 and stats.mean_degree == 0.0


def test_mesh_interior_degrees():
    m6 = build_topology(RegularMesh(6, 10, 12))
    m3 = build_topology(RegularMesh(3, 10, 12))
    assert m6.n == m3.n == 120
    interior6 = m6.degrees[grid_index(10, 12, 5, 6)]
    interior3 = m3.degrees[grid_index(10, 12, 5, 6)]
    assert interior6 == 6
    assert interior3 == 3
    # brick-wall: every interior node has exactly one vertical edge
    for r in range(1, 9):
        for c in range(1, 11):
            assert m3.degrees[grid_index(10, 12, r, c)] == 3


def test_rgg_average_degree_matches_paper_densities():
    for seed in (5, 28, 38):
        g = build_topology(RandomGeometric(1000, 7500, 3000, 250, seed))
        assert degree_stats(g).mean_degree == pytest.approx(8.0, abs=0.5)
    g = build_topology(RandomGeometric(1200, 7500, 3000, 250, 3))
    assert degree_stats(g).mean_degree == pytest.approx(10.0, abs=0.5)


def test_rgg_edge_set_is_exact():
    spec = RandomGeometric(200, 1000, 1000, 120, 9)
    g = build_topology(spec)
    xy = g.coords
    adj = np.zeros((g.n, g.n), dtype=bool)
    for u, v in g.edges():
        adj[u, v] = adj[v, u] = True
    for u in range(g.n):
        for v in range(u + 1, g.n):
            d2 = (xy[u, 0] - xy[v, 0]) ** 2 + (xy[u, 1] - xy[v, 1]) ** 2
            assert adj[u, v] == (d2 <= spec.radius**2)


def _rgg_all_pairs(spec: RandomGeometric) -> Graph:
    """Reference O(n^2) build: test every pair, in blocks of rows."""
    n = spec.n
    u = unit_uniforms(spec.seed, np.arange(2 * n, dtype=np.int64))
    coords = np.column_stack([u[0::2] * spec.width, u[1::2] * spec.height])
    r2 = spec.radius * spec.radius
    pieces = []
    block = max(1, 2**22 // max(n, 1))
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        dx = coords[lo:hi, 0:1] - coords[:, 0][None, :]
        dy = coords[lo:hi, 1:2] - coords[:, 1][None, :]
        close = (dx * dx + dy * dy) <= r2
        a, b = np.nonzero(close)
        a = a + lo
        keep = a < b  # upper triangle: excludes self-loops and mirrors
        if keep.any():
            pieces.append(np.column_stack([a[keep], b[keep]]))
    edges = np.concatenate(pieces) if pieces else np.empty((0, 2), dtype=np.int64)
    return Graph(n, edges, coords)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=400),                # nodes
    st.floats(min_value=-3.0, max_value=6.0),               # log10 width
    st.floats(min_value=-2.0, max_value=2.0),               # log10 height / width
    st.floats(min_value=-9.0, max_value=1.0),               # log10 radius / max side
    st.integers(min_value=0, max_value=10**9),              # instance seed
)
def test_rgg_cell_list_matches_all_pairs(n, log_w, log_aspect, log_r, seed):
    width = 10.0**log_w
    height = width * 10.0**log_aspect
    spec = RandomGeometric(n, width, height, max(width, height) * 10.0**log_r, seed)
    fast, ref = build_topology(spec), _rgg_all_pairs(spec)
    assert np.array_equal(fast.indptr, ref.indptr)
    assert np.array_equal(fast.indices, ref.indices)
    assert np.array_equal(fast.coords, ref.coords)


def test_rgg_matches_pinned_digests():
    # SHA-256 of indptr, indices and coords, recorded with the all-pairs build.
    pinned = {
        38: "8b572c6491d13375b9eeedcb0f4883124bcbf56cad73b49026c03a905ebbcc09",
        28: "3078ea5bce39d1e5c06b03b0f9609d0ce0743244b1bed4e4e12e204911062b05",
    }
    for seed, digest in pinned.items():
        g = build_topology(RandomGeometric(1000, 7500, 3000, 250, seed))
        h = hashlib.sha256()
        for arr in (g.indptr, g.indices, g.coords):
            h.update(arr.dtype.str.encode())
            h.update(arr.tobytes())
        assert h.hexdigest() == digest, seed


def test_graph_structural_invariants():
    g = build_topology(RandomGeometric(300, 2000, 1000, 180, 4))
    for u in range(g.n):
        nbrs = g.neighbors(u)
        assert np.all(np.diff(nbrs) > 0)  # sorted, no duplicates
        assert u not in nbrs
        for v in nbrs:
            assert u in g.neighbors(v)


def test_same_spec_same_graph():
    a = build_topology(RandomGeometric(400, 5000, 2000, 260, 77))
    b = build_topology(RandomGeometric(400, 5000, 2000, 260, 77))
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.coords, b.coords)
    c = build_topology(RandomGeometric(400, 5000, 2000, 260, 78))
    assert not np.array_equal(a.coords, c.coords)


def test_hop_distances_on_grid():
    g = build_topology(Grid(20, 50))
    src = grid_index(20, 50, 10, 0)
    dm = hop_distances(g, src)
    assert dm.dist[src] == 0
    assert dm.dist[grid_index(20, 50, 10, 5)] == 5
    assert dm.dist[grid_index(20, 50, 0, 49)] == 10 + 49


def _floyd_warshall(g: Graph) -> np.ndarray:
    n = g.n
    big = 10**6
    d = np.full((n, n), big, dtype=np.int64)
    np.fill_diagonal(d, 0)
    for u, v in g.edges():
        d[u, v] = d[v, u] = 1
    for k in range(n):
        d = np.minimum(d, d[:, k : k + 1] + d[k : k + 1, :])
    return d


def test_hop_distances_vs_floyd_warshall():
    g = build_topology(RandomGeometric(50, 1000, 1000, 260, 12))
    exact = _floyd_warshall(g)
    for src in (0, 17, 49):
        dm = hop_distances(g, src)
        for v in range(g.n):
            if dm.dist[v] == UNREACHABLE:
                assert exact[src, v] >= 10**6
            else:
                assert dm.dist[v] == exact[src, v]


def test_distance_lipschitz_along_edges():
    g = build_topology(RandomGeometric(300, 3000, 1500, 250, 21))
    dm = hop_distances(g, 0)
    for u, v in g.edges():
        if dm.dist[u] != UNREACHABLE and dm.dist[v] != UNREACHABLE:
            assert abs(int(dm.dist[u]) - int(dm.dist[v])) <= 1


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        self.parent[self.find(a)] = self.find(b)


def test_component_of_matches_union_find():
    g = build_topology(RandomGeometric(30, 3000, 3000, 400, 6))
    uf = _UnionFind(g.n)
    for u, v in g.edges():
        uf.union(u, v)
    for src in range(0, 30, 7):
        expected = sorted(v for v in range(g.n) if uf.find(v) == uf.find(src))
        assert list(component_of(g, src)) == expected


def test_component_of_connected_grid():
    g = build_topology(Grid(6, 7))
    assert list(component_of(g, 3)) == list(range(42))


def test_component_excludes_isolated_node():
    g = Graph(4, np.array([[0, 1], [1, 2]]))
    assert list(component_of(g, 0)) == [0, 1, 2]
    assert 3 not in component_of(g, 0)


def test_ball_distances():
    g = build_topology(Grid(9, 9))
    center = grid_index(9, 9, 4, 4)
    nodes, dists = ball_distances(g, center, 2)
    dm = hop_distances(g, center)
    assert set(nodes) == set(np.flatnonzero(dm.dist <= 2))
    for u, d in zip(nodes, dists):
        assert dm.dist[u] == d
    nodes0, dists0 = ball_distances(g, center, 0)
    assert list(nodes0) == [center] and list(dists0) == [0]


def test_gather_neighbors_contract():
    # node 4 has no neighbours; frontiers may repeat nodes and come unsorted
    g = Graph(5, np.array([[0, 1], [0, 2], [1, 3]]))
    for nodes in ([], [4], [4, 4], [0], [3, 0, 0, 4, 1], [1, 1], [2, 4, 2]):
        targets, senders = gather_neighbors(g, np.array(nodes, dtype=np.int64))
        assert targets.dtype == senders.dtype == np.intp
        assert targets.tolist() == [int(v) for u in nodes for v in g.neighbors(u)]
        assert senders.tolist() == [u for u in nodes for _ in g.neighbors(u)]
    g = random_graph(40, 0.1, 11)
    nodes = np.array([7, 3, 3, 39, 0, 7], dtype=np.int64)
    targets, senders = gather_neighbors(g, nodes)
    assert np.array_equal(targets, np.concatenate([g.neighbors(u) for u in nodes]))
    assert np.array_equal(senders, np.repeat(nodes, g.degrees[nodes]))


# The two bounded BFS loops that zone_levels replaced, kept as its reference.
def _reference_zone_covered(g, received, zone_radius):
    covered = received.copy()
    frontier = np.flatnonzero(received)
    for _ in range(zone_radius):
        if not frontier.size:
            break
        targets, _ = gather_neighbors(g, frontier)
        fresh = np.unique(targets[~covered[targets]])
        covered[fresh] = True
        frontier = fresh
    return covered


def _reference_zone_unicast_count(g, received, zone_radius):
    level = np.where(received, 0, -1).astype(np.int32)
    frontier = np.flatnonzero(received)
    total = 0
    for d in range(1, zone_radius + 1):
        if not frontier.size:
            break
        targets, _ = gather_neighbors(g, frontier)
        fresh = np.unique(targets[level[targets] == -1])
        level[fresh] = d
        total += int(fresh.size) * d
        frontier = fresh
    return total


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=60),
    st.floats(min_value=0.0, max_value=0.3),
    st.integers(min_value=0, max_value=4),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=10**9),
)
def test_zone_levels_matches_reference_loops(n, edge_prob, radius, receive_prob, seed):
    g = random_graph(n, edge_prob, seed)
    received = unit_uniforms(seed + 1, np.arange(n, dtype=np.int64)) < receive_prob
    level = zone_levels(g, received, radius)
    assert level.dtype == np.int32
    assert np.array_equal(level == 0, received)
    assert np.array_equal(level >= 0, _reference_zone_covered(g, received, radius))
    assert int(level[level > 0].sum()) == _reference_zone_unicast_count(g, received, radius)
    assert level.max(initial=0) <= radius


def test_edge_list_roundtrip_bit_exact():
    g = build_topology(RandomGeometric(120, 2200, 600, 250, 34))
    buf = io.StringIO()
    save_edgelist(g, buf)
    g2 = load_edgelist(io.StringIO(buf.getvalue()))
    assert g2.n == g.n
    assert np.array_equal(g2.indptr, g.indptr)
    assert np.array_equal(g2.indices, g.indices)
    assert np.array_equal(g2.coords, g.coords)  # bit-exact floats
    buf2 = io.StringIO()
    save_edgelist(g2, buf2)
    assert buf2.getvalue() == buf.getvalue()


def test_edge_list_roundtrip_no_coords(tmp_path):
    g = build_topology(Grid(5, 8))
    path = tmp_path / "grid.edges"
    save_edgelist(g, str(path))
    g2 = load_edgelist(str(path))
    assert np.array_equal(g2.indices, g.indices) and g2.coords is None


@pytest.mark.parametrize(
    "spec",
    [
        Grid(0, 5),
        Grid(5, 0),
        RegularMesh(4, 5, 5),
        RegularMesh(7, 5, 5),
        RandomGeometric(0, 10, 10, 1, 1),
        RandomGeometric(10, -1, 10, 1, 1),
        RandomGeometric(10, 10, 10, 0, 1),
    ],
)
def test_invalid_specs_rejected(spec):
    with pytest.raises(ValueError):
        build_topology(spec)


def test_graph_rejects_self_loops_and_duplicates():
    with pytest.raises(ValueError):
        Graph(3, np.array([[1, 1]]))
    with pytest.raises(ValueError):
        Graph(3, np.array([[0, 1], [0, 1]]))
    with pytest.raises(ValueError):
        Graph(3, np.array([[0, 5]]))


def test_hop_distances_invalid_source():
    g = build_topology(Grid(3, 3))
    with pytest.raises(ValueError):
        hop_distances(g, 9)
