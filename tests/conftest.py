import numpy as np
import pytest

from gossipsim import Gossip2, Gossip3, Graph, engine
from gossipsim.engine import _NO_KEY
from gossipsim.protocols import ProtocolSpec
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


def csr_gather(g: Graph, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(targets, senders) read from the CSR arrays alone, with no sink: the
    reference gather, independent of the layout `gather_neighbors` reads."""
    nodes = np.asarray(nodes, dtype=np.intp)
    lens = g.degrees[nodes]
    offsets = np.repeat(g.indptr[nodes] - np.cumsum(lens) + lens, lens)
    positions = offsets + np.arange(int(lens.sum()))
    return g.indices[positions].astype(np.intp), np.repeat(nodes, lens)


def keyed_execution(g: Graph, source: int, spec, seed: int):
    """`run_execution` through `_keyed_rounds` below, whatever the spec: the
    reference the engine's loops must match."""
    return engine._execute(g, source, spec, seed, _keyed_rounds)


# The engine's general key-based round loop as it stood before gossip2 moved
# to the lean loop, kept verbatim as the reference for every spec: per-node
# send keys, the OR of gossip2 boosts, copy counts and timeout checks.
def _keyed_rounds(g: Graph, source: int, spec: ProtocolSpec, draws: np.ndarray) -> tuple:
    n = g.n
    stride = n + 1
    receive_round = np.full(n, -1, dtype=np.int32)
    timeout_forward = np.zeros(n, dtype=bool)
    L_first = np.zeros(n, dtype=np.int32)
    # first_key[v] = hop * (n + 1) + parent of v's first copy (the source's 0
    # decodes to parent 0 and is reset to -1); send_key[u] is the key u's
    # broadcast gives its receivers, -1 until u forwards
    first_key = np.full(n, _NO_KEY, dtype=np.int64)
    send_key = np.full(n, -1, dtype=np.int64)

    is_g2 = isinstance(spec, Gossip2)
    is_g3 = isinstance(spec, Gossip3) and spec.m > 0
    if is_g2:
        boost_first = np.zeros(n, dtype=np.uint8)
        out_boost = (g.degrees < spec.n_thresh).astype(np.uint8)
    else:
        coin = draws < spec.p
    if is_g3:
        copies = np.zeros(n, dtype=np.int64)  # int64 + intp index: ufunc.at fast path
        out_L = np.zeros(n, dtype=np.int32)
    k = spec.k

    sends: dict[int, list[np.ndarray]] = {}
    checks: dict[int, list[np.ndarray]] = {}

    def decide(nodes: np.ndarray, h: np.ndarray, round_: int) -> None:
        # forward inside the k zone, otherwise with the protocol's probability
        if is_g2:
            lucky = draws[nodes] < np.where(boost_first[nodes] > 0, spec.p2, spec.p1)
        else:
            lucky = coin[nodes]
        go = lucky | (h < k)
        fwd = nodes[go]
        if fwd.size:
            send_key[fwd] = (h[go] + 1) * stride + fwd
            if is_g3:
                out_L[fwd] = L_first[fwd]
            sends.setdefault(round_, []).append(fwd)
        if is_g3:
            declined = nodes[~go]
            if declined.size:
                checks.setdefault(round_ + spec.timeout_rounds, []).append(declined)

    receive_round[source] = 0
    first_key[source] = 0
    decide(np.array([source], dtype=np.intp), np.zeros(1, dtype=np.int64), 0)

    t = 0
    while sends or checks:
        # timeout checks for nodes that first received in round t - timeout_rounds:
        # copies currently reflect everything delivered through round t.
        for cand in checks.pop(t, []):
            extra = copies[cand] - (cand != source)  # the first copy does not count
            late = cand[extra < spec.m]
            if late.size:
                timeout_forward[late] = True
                send_key[late] = (first_key[late] // stride + 1) * stride + late
                out_L[late] = L_first[late] + 1
                sends.setdefault(t + 1, []).append(late)

        batches = sends.pop(t, None)
        if batches:
            senders = batches[0] if len(batches) == 1 else np.concatenate(batches)
            targets, snd = csr_gather(g, senders)
            if is_g3:
                np.add.at(copies, targets, 1)
            fresh = np.flatnonzero(receive_round[targets] == -1)
            nt = targets[fresh]
            if nt.size:
                snd = snd[fresh]
                key = send_key[snd]
                np.minimum.at(first_key, nt, key)
                if is_g2:
                    np.maximum.at(boost_first, nt, out_boost[snd])
                if is_g3:
                    np.maximum.at(L_first, nt, out_L[snd])
                # (target, sender) pairs are unique within a round, so exactly
                # one entry per new receiver holds its minimum key
                won = first_key[nt] == key
                newly = nt[won]
                receive_round[newly] = t + 1
                decide(newly, key[won] // stride, t + 1)
        t += 1

    received = receive_round >= 0
    hop, parent = np.divmod(first_key, stride)
    hop = np.where(received, hop, -1).astype(np.int32)
    parent = np.where(received, parent, -1).astype(np.int32)
    parent[source] = -1
    return received, receive_round, hop, parent, send_key >= 0, timeout_forward, L_first


def line_graph(n: int) -> Graph:
    edges = np.column_stack([np.arange(n - 1), np.arange(1, n)])
    return Graph(n, edges)


@pytest.fixture
def grid20x50():
    from gossipsim import Grid, build_topology

    return build_topology(Grid(20, 50))
