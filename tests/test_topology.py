import hashlib
from unittest import mock

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
    grid_index,
    hop_distances,
)
from gossipsim.rng import unit_uniforms
from gossipsim import topology
from gossipsim.topology import ball_distances, gather_neighbors, zone_levels

from conftest import random_graph


def test_grid_20x50_shape():
    g = build_topology(Grid(20, 50))
    assert g.n == 1000
    assert g.degrees.min() == 2 and g.degrees.max() == 4
    # direct count: 4 corners of degree 2, 2*48+2*18 edge nodes of degree 3,
    # 18*48 interior nodes of degree 4
    expected = (4 * 2 + (2 * 48 + 2 * 18) * 3 + 18 * 48 * 4) / 1000
    assert g.degrees.mean() == pytest.approx(expected)
    assert expected == pytest.approx(3.86)


def test_grid_1x1():
    g = build_topology(Grid(1, 1))
    assert g.n == 1 and len(g.edges()) == 0
    assert g.degrees.min() == g.degrees.max() == 0 and g.degrees.mean() == 0.0


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
        assert g.degrees.mean() == pytest.approx(8.0, abs=0.5)
    g = build_topology(RandomGeometric(1200, 7500, 3000, 250, 3))
    assert g.degrees.mean() == pytest.approx(10.0, abs=0.5)


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
    # SHA-256 of indptr, indices and coords (when present).  The two rgg 1000
    # digests were recorded with the all-pairs build, the others with the
    # (src, dst) lexsort build: every builder's CSR must stay as it was.
    pinned = {
        RandomGeometric(1000, 7500, 3000, 250, 38): "8b572c6491d13375b9eeedcb0f4883124bcbf56cad73b49026c03a905ebbcc09",
        RandomGeometric(1000, 7500, 3000, 250, 28): "3078ea5bce39d1e5c06b03b0f9609d0ce0743244b1bed4e4e12e204911062b05",
        Grid(300, 300): "b798f0d7a1b0a8d451173477c6962f5825abebe0a87a3a6b6d7378398bc92ecd",
        Grid(20, 50): "c120d172162879dc79535916190c663f5049fb399e5e7e76c557ab990727b0ba",
        RegularMesh(3, 10, 12): "f620a7bc214e335940c0dfe1f6dc1865b64109051e631b70a3fa1594c814ceef",
        RegularMesh(6, 10, 12): "ae4154f269eadacb4881b8d207b71c8aee81559220fe7ec85e88406060de4a68",
        RandomGeometric(10000, 23717, 9487, 250, 28): "2bd4115c6ddc6ee6effa4b08b5ec0b1b8a78afdcd31f20a81263f23ae45c6eae",
    }
    for spec, digest in pinned.items():
        g = build_topology(spec)
        h = hashlib.sha256()
        for arr in (g.indptr, g.indices, g.coords):
            if arr is not None:
                h.update(arr.dtype.str.encode())
                h.update(arr.tobytes())
        assert h.hexdigest() == digest, spec


def _assert_block_budget_changes_nothing(spec: RandomGeometric) -> None:
    """Builds filtering 1 and 7 candidates per block equal the default build, array for array."""
    default = build_topology(spec)
    expand = topology._expand
    for budget in (1, 7):
        blocks = []

        def recording(ends, lens):
            blocks.append(lens.tolist())
            return expand(ends, lens)

        with mock.patch.object(topology, "_RGG_BLOCK", budget), mock.patch.object(topology, "_expand", recording):
            g = build_topology(spec)
        # the blocks split the 5n (point, cell) entries in order, each within the budget or one entry
        assert sum(len(b) for b in blocks) == 5 * spec.n
        assert all(sum(b) <= budget or len(b) == 1 for b in blocks), budget
        for name in ("indptr", "indices", "degrees", "table", "coords"):
            a, b = getattr(g, name), getattr(default, name)
            assert (a is None and b is None) or np.array_equal(a, b), (spec, budget, name)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=400),                # nodes
    st.floats(min_value=-3.0, max_value=6.0),               # log10 width
    st.floats(min_value=-2.0, max_value=2.0),               # log10 height / width
    st.floats(min_value=-9.0, max_value=1.0),               # log10 radius / max side
    st.integers(min_value=0, max_value=10**9),              # instance seed
)
def test_rgg_block_budget_changes_no_graph(n, log_w, log_aspect, log_r, seed):
    width = 10.0**log_w
    height = width * 10.0**log_aspect
    _assert_block_budget_changes_nothing(RandomGeometric(n, width, height, max(width, height) * 10.0**log_r, seed))


def test_rgg10k_block_budget_changes_no_graph():
    _assert_block_budget_changes_nothing(RandomGeometric(10000, 23717, 9487, 250, 28))


def _sorted_adjacency(n: int, edges) -> tuple[list, list, list]:
    """Reference CSR (indptr, indices, degrees) from plain sorted Python lists."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    indptr = [0]
    for nbrs in adj:
        indptr.append(indptr[-1] + len(nbrs))
    return indptr, [v for nbrs in adj for v in sorted(nbrs)], [len(nbrs) for nbrs in adj]


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=60), st.data())
def test_graph_matches_sorted_adjacency_reference(n, data):
    # any edge set (empty, isolated nodes, n = 1), shuffled, each edge in a random orientation
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = data.draw(st.sets(st.sampled_from(pairs), max_size=len(pairs))) if pairs else set()
    order = data.draw(st.permutations(sorted(chosen)))
    flips = data.draw(st.lists(st.booleans(), min_size=len(order), max_size=len(order)))
    edges = np.array([(v, u) if flip else (u, v) for (u, v), flip in zip(order, flips)],
                     dtype=np.int64).reshape(-1, 2)
    g = Graph(n, edges)
    indptr, indices, degrees = _sorted_adjacency(n, order)
    assert g.n == n
    assert g.indptr.dtype == np.int64 and g.indptr.tolist() == indptr
    assert g.indices.dtype == np.int32 and g.indices.tolist() == indices
    assert g.degrees.dtype == np.int64 and g.degrees.tolist() == degrees
    for arr in (g.indptr, g.indices, g.degrees):
        assert not arr.flags.writeable
    assert g.edges().tolist() == [list(e) for e in sorted(chosen)]


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
        assert list(np.flatnonzero(hop_distances(g, src).dist != UNREACHABLE)) == expected


def test_component_of_connected_grid():
    g = build_topology(Grid(6, 7))
    assert np.all(hop_distances(g, 3).dist != UNREACHABLE)


def test_component_excludes_isolated_node():
    g = Graph(4, np.array([[0, 1], [1, 2]]))
    reached = hop_distances(g, 0).dist != UNREACHABLE
    assert list(reached) == [True, True, True, False]


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


def _real_pairs(targets, senders) -> list:
    """(target, sender) pairs of a gather, its pads (target == sender) dropped."""
    keep = targets != senders
    return list(zip(targets[keep].tolist(), senders[keep].tolist()))


def test_gather_neighbors_contract():
    # node 4 has no neighbours; frontiers may repeat nodes and come unsorted.
    # Each node takes max-degree (2) entries: its neighbours in CSR order,
    # then itself as the pad.
    g = Graph(5, np.array([[0, 1], [0, 2], [1, 3]]))
    assert g.table.dtype == np.intp and not g.table.flags.writeable
    assert g.table.tolist() == [[1, 2], [0, 3], [0, 2], [1, 3], [4, 4]]
    for nodes in ([], [4], [4, 4], [0], [3, 0, 0, 4, 1], [1, 1], [2, 4, 2]):
        targets, senders = gather_neighbors(g, np.array(nodes, dtype=np.int64))
        assert targets.dtype == senders.dtype == np.intp
        assert targets.ndim == 1 and targets.flags.c_contiguous
        assert targets.tolist() == [v for u in nodes for v in g.table[u].tolist()]
        assert senders.tolist() == [u for u in nodes for _ in range(2)]
        assert _real_pairs(targets, senders) == [(int(v), u) for u in nodes for v in g.neighbors(u)]
    g = random_graph(40, 0.1, 11)
    width = g.table.shape[1]
    assert g.table.shape == (40, int(g.degrees.max()))
    for v in range(g.n):
        pads = [v] * (width - int(g.degrees[v]))
        assert g.table[v].tolist() == g.neighbors(v).tolist() + pads
    nodes = np.array([7, 3, 3, 39, 0, 7], dtype=np.int64)
    targets, senders = gather_neighbors(g, nodes)
    assert np.array_equal(senders, np.repeat(nodes, width))
    keep = targets != senders
    assert np.array_equal(targets[keep], np.concatenate([g.neighbors(u) for u in nodes]))
    assert np.array_equal(senders[keep], np.repeat(nodes, g.degrees[nodes]))
    # a graph with no edges has a table with no columns
    g = Graph(3, np.zeros((0, 2), dtype=np.int64))
    assert g.table.shape == (3, 0)
    targets, senders = gather_neighbors(g, np.array([2, 0]))
    assert targets.size == senders.size == 0 and targets.dtype == senders.dtype == np.intp


def _star(n: int) -> Graph:
    return Graph(n, np.column_stack([np.zeros(n - 1, dtype=np.int64), np.arange(1, n)]))


def test_table_kept_up_to_its_size_bound():
    # a star's table holds n(n - 1) entries against 3n - 1 in CSR
    n = next(n for n in range(2, 1000) if n * (n - 1) > topology.TABLE_MAX_RATIO * (3 * n - 1))
    assert _star(n - 1).table is not None and _star(n).table is None
    for spec in (Grid(300, 300), RegularMesh(6, 20, 50), RandomGeometric(10000, 23717, 9487, 250, 28)):
        assert build_topology(spec).table is not None, spec


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_gather_neighbors_matches_python_adjacency(data):
    # both layouts against plain Python lists: every real (target, sender)
    # pair once per occurrence of the sender, in frontier order and then CSR
    # order; a table gather adds exactly max-degree - degree pads per sender,
    # each the sender itself
    if data.draw(st.booleans()):
        n = data.draw(st.integers(min_value=1, max_value=30))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = sorted(data.draw(st.sets(st.sampled_from(pairs), max_size=len(pairs)))) if pairs else []
    else:  # stars past the table's size bound take the CSR path
        lo = 3 * topology.TABLE_MAX_RATIO + 4
        n = data.draw(st.integers(min_value=lo, max_value=lo + 40))
        edges = [(0, v) for v in range(1, n)]
    g = Graph(n, np.array(edges, dtype=np.int64).reshape(-1, 2))
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    nodes = data.draw(st.lists(st.integers(min_value=0, max_value=n - 1), max_size=3 * n))
    targets, senders = gather_neighbors(g, np.array(nodes, dtype=np.int64))
    assert targets.dtype == senders.dtype == np.intp and targets.size == senders.size
    assert _real_pairs(targets, senders) == [(v, u) for u in nodes for v in sorted(adj[u])]
    if g.table is None:
        assert not np.any(targets == senders)
    else:
        width = max((len(a) for a in adj), default=0)
        assert g.table.shape == (n, width)
        assert senders.tolist() == [u for u in nodes for _ in range(width)]
        assert targets.tolist() == [v for u in nodes for v in sorted(adj[u]) + [u] * (width - len(adj[u]))]


def _reference_zone_levels(g, received, radius) -> np.ndarray:
    """Plain-Python multi-source BFS: hops to the nearest receiver, -1 beyond `radius`."""
    level = [0 if r else -1 for r in received.tolist()]
    frontier = [v for v in range(g.n) if received[v]]
    for d in range(1, radius + 1):
        reached = []
        for u in frontier:
            for v in g.neighbors(u).tolist():
                if level[v] == -1:
                    level[v] = d
                    reached.append(v)
        frontier = reached
    return np.array(level, dtype=np.int32)


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
    assert np.array_equal(level, _reference_zone_levels(g, received, radius))


# (class, args): a spec checks itself when it is built, so a bad one cannot exist
@pytest.mark.parametrize(
    "spec",
    [
        (Grid, (0, 5)),
        (Grid, (5, 0)),
        (RegularMesh, (4, 5, 5)),
        (RegularMesh, (7, 5, 5)),
        (RandomGeometric, (0, 10, 10, 1, 1)),
        (RandomGeometric, (10, -1, 10, 1, 1)),
        (RandomGeometric, (10, 10, 10, 0, 1)),
    ],
)
def test_invalid_specs_rejected(spec):
    cls, args = spec
    with pytest.raises(ValueError):
        cls(*args)


def test_graph_rejects_self_loops_and_duplicates():
    with pytest.raises(ValueError):
        Graph(3, np.array([[1, 1]]))
    with pytest.raises(ValueError):
        Graph(3, np.array([[0, 1], [0, 1]]))
    with pytest.raises(ValueError):
        Graph(3, np.array([[0, 1], [1, 0]]))  # one edge given both ways
    with pytest.raises(ValueError):
        Graph(3, np.array([[0, 5]]))
    with pytest.raises(ValueError):
        Graph(3, np.array([[-1, 2]]))


def test_hop_distances_invalid_source():
    g = build_topology(Grid(3, 3))
    with pytest.raises(ValueError):
        hop_distances(g, 9)
