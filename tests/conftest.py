import numpy as np
import pytest

from gossipsim import Graph
from gossipsim.rng import unit_uniforms


def random_graph(n: int, edge_prob: float, seed: int, coords: bool = False) -> Graph:
    """Small deterministic G(n, p) test graph (not part of the library)."""
    pairs = np.array([(u, v) for u in range(n) for v in range(u + 1, n)], dtype=np.int64)
    if pairs.size:
        draws = unit_uniforms(seed, np.arange(len(pairs), dtype=np.int64))
        pairs = pairs[draws < edge_prob]
    xy = None
    if coords:
        u = unit_uniforms(seed + 1, np.arange(2 * n, dtype=np.int64))
        xy = np.column_stack([u[0::2] * 100.0, u[1::2] * 100.0])
    return Graph(n, pairs, xy)


def line_graph(n: int) -> Graph:
    edges = np.column_stack([np.arange(n - 1), np.arange(1, n)])
    return Graph(n, edges)


@pytest.fixture
def grid20x50():
    from gossipsim import Grid, build_topology

    return build_topology(Grid(20, 50))
