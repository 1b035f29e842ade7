"""Invariant and oracle checks over randomized graphs and protocols."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gossipsim import (
    FLOODING,
    Gossip1,
    Gossip2,
    Gossip3,
    Gossip4,
    Graph,
    Grid,
    UNREACHABLE,
    build_topology,
    grid_index,
    hop_distances,
    iter_batch,
    run_execution,
)
from gossipsim.metrics import CoverageAccumulator, ProfileAccumulator

from conftest import random_graph

graph_params = st.tuples(
    st.integers(min_value=2, max_value=30),      # nodes
    st.integers(min_value=0, max_value=10**6),   # edge seed
    st.sampled_from([0.08, 0.15, 0.3, 0.6]),     # edge probability
)
protocol_strategy = st.one_of(
    st.builds(
        Gossip1,
        p=st.floats(min_value=0.0, max_value=1.0),
        k=st.integers(min_value=0, max_value=5),
    ),
    st.builds(
        Gossip2,
        p1=st.floats(min_value=0.0, max_value=0.7),
        k=st.integers(min_value=0, max_value=4),
        p2=st.floats(min_value=0.7, max_value=1.0),
        n_thresh=st.integers(min_value=1, max_value=8),
    ),
    st.builds(
        Gossip3,
        p=st.floats(min_value=0.0, max_value=1.0),
        k=st.integers(min_value=0, max_value=4),
        m=st.integers(min_value=0, max_value=3),
        timeout_rounds=st.integers(min_value=1, max_value=4),
    ),
    st.builds(
        Gossip4,
        p=st.floats(min_value=0.0, max_value=1.0),
        k=st.integers(min_value=0, max_value=4),
        zone_radius=st.integers(min_value=0, max_value=4),
    ),
)


@settings(max_examples=60, deadline=None)
@given(graph_params, protocol_strategy, st.integers(min_value=0, max_value=10**9))
def test_trace_invariants(params, spec, seed):
    n, gseed, prob = params
    g = random_graph(n, prob, gseed)
    tr = run_execution(g, 0, spec, seed)
    # at-most-once: broadcast count equals the number of forwarding nodes
    assert tr.broadcast_count == int(tr.forwarded.sum()) <= g.n
    # forwarded implies received; received implies a forwarding parent
    assert not np.any(tr.forwarded & ~tr.received)
    for v in np.flatnonzero(tr.received):
        if v == 0:
            continue
        p = int(tr.parent[v])
        assert p in g.neighbors(v)
        assert tr.forwarded[p]
        assert tr.hop[v] == tr.hop[p] + 1
        assert tr.receive_round[v] >= 1
    # non-receivers carry empty fields
    for v in np.flatnonzero(~tr.received):
        assert tr.receive_round[v] == -1 and tr.hop[v] == -1 and tr.parent[v] == -1


@settings(max_examples=40, deadline=None)
@given(graph_params, st.integers(min_value=0, max_value=10**9))
def test_flooding_is_bfs_everywhere(params, seed):
    n, gseed, prob = params
    g = random_graph(n, prob, gseed)
    dm = hop_distances(g, 0)
    tr = run_execution(g, 0, FLOODING, seed)
    assert np.array_equal(tr.hop, dm.dist)
    assert tr.broadcast_count == int((dm.dist != UNREACHABLE).sum())


@settings(max_examples=40, deadline=None)
@given(
    graph_params,
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=10**9),
)
def test_degeneracy_equivalences(params, p, k, seed):
    n, gseed, prob = params
    g = random_graph(n, prob, gseed)
    base = run_execution(g, 0, Gossip1(p, k), seed)
    # Gossip2 with p1 = p2 never needs the boost
    g2 = run_execution(g, 0, Gossip2(p, k, p, 5), seed)
    assert base.same_outcome(g2)
    # Gossip3 with m = 0 never times out
    g3 = run_execution(g, 0, Gossip3(p, k, 0, 2), seed)
    assert base.same_outcome(g3)
    # Gossip4's zone radius does not change propagation
    g4 = run_execution(g, 0, Gossip4(p, k, 3), seed)
    assert base.same_outcome(g4)


@settings(max_examples=40, deadline=None)
@given(graph_params, st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=10**9))
def test_gossip1_p1_covers_like_flooding(params, k, seed):
    n, gseed, prob = params
    g = random_graph(n, prob, gseed)
    a = run_execution(g, 0, Gossip1(1.0, k), seed)
    b = run_execution(g, 0, FLOODING, seed)
    assert np.array_equal(a.received, b.received)
    assert a.broadcast_count == b.broadcast_count


@settings(max_examples=40, deadline=None)
@given(
    graph_params,
    st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=10**9),
)
def test_coupling_monotone_in_p(params, ps, k, seed):
    n, gseed, prob = params
    lo, hi = min(ps), max(ps)
    g = random_graph(n, prob, gseed)
    small = run_execution(g, 0, Gossip1(lo, k), seed)
    large = run_execution(g, 0, Gossip1(hi, k), seed)
    assert not np.any(small.received & ~large.received)
    assert not np.any(small.forwarded & ~large.forwarded)


@settings(max_examples=60, deadline=None)
@given(
    graph_params,
    st.floats(0.0, 1.0),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=10**9),
)
def test_gossip3_L0_part_is_within_gossip1(params, p, k, m, timeout, seed):
    # A copy with L = 0 passed only through nodes that forwarded by their own
    # draw, and those nodes forward under gossip1 with the same seed too.
    n, gseed, prob = params
    g = random_graph(n, prob, gseed)
    g1 = run_execution(g, 0, Gossip1(p, k), seed)
    g3 = run_execution(g, 0, Gossip3(p, k, m, timeout), seed)
    L0_senders = np.flatnonzero(g3.forwarded)[g3.sent_L() == 0]
    assert g1.forwarded[L0_senders].all()
    assert not np.any(g3.received & (g3.L_at_receipt == 0) & ~g1.received)


@settings(max_examples=30, deadline=None)
@given(graph_params, st.integers(min_value=0, max_value=10**9))
def test_bimodal_tail_consistency(params, seed):
    n, gseed, prob = params
    g = random_graph(max(n, 6), prob, gseed)
    dm = hop_distances(g, 0)
    if dm.max_distance < 2:
        return
    traces = list(iter_batch(g, 0, Gossip1(0.5, 1), 20, seed))
    summary = CoverageAccumulator(dm, (1, dm.max_distance)).consume(traces).summary()
    assert summary.frac_below_10pct <= summary.frac_below_20pct
    assert summary.frac_above_90pct <= summary.frac_above_80pct
    assert summary.bin_fraction.sum() == pytest.approx(1.0)


def exact_receive_probabilities(g: Graph, source: int, p: float) -> np.ndarray:
    """Enumerate forwarding subsets for Gossip1(p, 1): exact receive probabilities.

    A node receives iff it is connected to the source through nodes willing
    to forward; the source always forwards.
    """
    others = [v for v in range(g.n) if v != source]
    probs = np.zeros(g.n)
    for mask in range(2 ** len(others)):
        willing = {source}
        weight = 1.0
        for i, v in enumerate(others):
            if mask >> i & 1:
                willing.add(v)
                weight *= p
            else:
                weight *= 1.0 - p
        # component of source within the willing set, plus its neighborhood
        reached = {source}
        stack = [source]
        while stack:
            u = stack.pop()
            for w in g.neighbors(u):
                w = int(w)
                if w not in reached:
                    reached.add(w)
                    if w in willing:
                        stack.append(w)
        probs[list(reached)] += weight
    return probs


def test_receive_probability_oracle_small_graph():
    # quick version of the acceptance oracle: 7 nodes, 20k runs, 4 sigma
    g = random_graph(7, 0.4, 123)
    p = 0.55
    exact = exact_receive_probabilities(g, 0, p)
    runs = 20_000
    hits = np.zeros(g.n)
    for tr in iter_batch(g, 0, Gossip1(p, 1), runs, 2026):
        hits += tr.received
    mc = hits / runs
    se = np.sqrt(np.maximum(exact * (1 - exact), 1e-12) / runs)
    assert np.all(np.abs(mc - exact) <= 4 * se + 1e-9)


def test_conditional_coverage_independent_of_k():
    # conditioned on non-extinction, per-distance receive fractions for k=1
    # and k=5 agree (k only changes how often the gossip survives)
    g = build_topology(Grid(40, 40))
    src = grid_index(40, 40, 20, 20)
    dm = hop_distances(g, src)
    band = (5, 15)
    profiles = {}
    for k in (1, 5):
        acc = CoverageAccumulator(dm, band)
        kept = []
        for tr in iter_batch(g, src, Gossip1(0.7, k), 150, 555):
            acc.add(tr)
            if acc.coverages[-1] > 0.5:
                kept.append(tr)
        profiles[k] = ProfileAccumulator(dm).consume(kept).result()
    a, b = profiles[1], profiles[5]
    upto = 16
    diff = np.abs(a.fraction[5:upto] - b.fraction[5:upto])
    tol = 3 * np.sqrt(a.stderr[5:upto] ** 2 + b.stderr[5:upto] ** 2) + 0.02
    assert np.all(diff <= tol)


def test_gossip2_boost_not_inherited():
    # chain 0-1-2-3 plus hub edges making node 1 low-degree and node 2 high-degree:
    # node 2 receives the boost from node 1, but its own copies carry none.
    edges = [(0, 1), (1, 2), (2, 3)]
    hub = 4
    for leaf in range(4, 10):
        edges.append((2, leaf))
    g = Graph(10, np.array(edges))
    # p1=0: only boosted nodes (and the k-zone) ever forward.
    spec = Gossip2(0.0, 1, 1.0, 3)
    tr = run_execution(g, 0, spec, 99)
    # node 1 (degree 2 < 3) is in the k zone and forwards, boosting node 2;
    # node 2 forwards with p2=1; node 3 gets a boost-free copy (deg(2) = 7)
    # and with p1=0 never forwards.
    assert tr.forwarded[1] and tr.forwarded[2]
    assert tr.received[3] and not tr.forwarded[3]
