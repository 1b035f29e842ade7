"""Invariant and oracle checks over randomized graphs and protocols."""

import itertools
import math

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
from spec import assert_matches_spec, spec_trace

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
    # every node below hop k sends in the round after receipt, so the hops
    # below k are the receive rounds below k (the keyed loop decides by round)
    got = tr.received
    assert np.array_equal(tr.hop[got] < spec.k, tr.receive_round[got] < spec.k)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from([0.0, 0.05, 0.1, 0.2, 0.4]),  # sparse draws leave isolated nodes
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=4),
    st.sampled_from(["gossip1", "flooding", "gossip4", "gossip3 m=0", "gossip2", "gossip3 m>0"]),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=10**9),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=1, max_value=6),
)
def test_engine_matches_spec(n, gseed, prob, p, k, kind, src, seed, q, small):
    # both of the engine's loops against the spec; gossip2 draws p1 <= p2 and
    # n_thresh 1-6, so some senders boost and some do not
    g = random_graph(n, prob, gseed)
    spec = {
        "gossip1": Gossip1(p, k),
        "flooding": FLOODING,
        "gossip4": Gossip4(p, k, 2),
        "gossip3 m=0": Gossip3(p, k, 0, 2),
        "gossip2": Gossip2(min(p, q), k, max(p, q), small),
        "gossip3 m>0": Gossip3(p, k, 1 + small % 3, small),
    }[kind]
    source = src % n
    assert_matches_spec(run_execution(g, source, spec, seed), g)


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


def spec_receive_probabilities(g: Graph, source: int, spec) -> np.ndarray:
    """Exact receive probabilities under any protocol, by enumerating each
    node's draw class through the spec: below p and p or more, or for gossip2
    below p1, from p1 up to p2, and p2 or more.  A class is represented by its
    lowest draw and weighted by its width."""
    cuts = [0.0, spec.p1, spec.p2, 1.0] if isinstance(spec, Gossip2) else [0.0, spec.p, 1.0]
    classes = [(lo, hi - lo) for lo, hi in zip(cuts, cuts[1:]) if hi > lo]
    probs = np.zeros(g.n)
    for combo in itertools.product(classes, repeat=g.n):
        draws = [draw for draw, _ in combo]
        probs += math.prod(weight for _, weight in combo) * spec_trace(g, source, spec, draws)["received"]
    return probs


def _monte_carlo_matches(g: Graph, spec, exact: np.ndarray) -> bool:
    """20,000 runs of `spec` from node 0 agree with `exact` within 4 sigma at every node."""
    runs = 20_000
    hits = np.zeros(g.n)
    for tr in iter_batch(g, 0, spec, runs, 2026):
        hits += tr.received
    se = np.sqrt(np.maximum(exact * (1 - exact), 1e-12) / runs)
    return bool(np.all(np.abs(hits / runs - exact) <= 4 * se + 1e-9))


def test_receive_probability_oracle_small_graph():
    # quick version of the acceptance oracle on its random-11 graph, whose
    # source reaches every node (a source that reaches no one makes the check vacuous)
    g = random_graph(11, 0.3, 5)
    assert np.all(hop_distances(g, 0).dist != UNREACHABLE)
    p = 0.55
    assert _monte_carlo_matches(g, Gossip1(p, 1), exact_receive_probabilities(g, 0, p))


@pytest.mark.parametrize("n, edge_prob, seed, p", [(11, 0.3, 5, 0.55), (13, 0.25, 7, 0.65), (9, 0.3, 11, 0.3)])
def test_spec_oracle_matches_percolation_oracle(n, edge_prob, seed, p):
    # two independent enumerations of gossip1(p, 1)
    g = random_graph(n, edge_prob, seed)
    spec_probs = spec_receive_probabilities(g, 0, Gossip1(p, 1))
    assert np.abs(spec_probs - exact_receive_probabilities(g, 0, p)).max() <= 1e-12


@pytest.mark.parametrize("spec", [Gossip2(0.3, 1, 0.8, 3), Gossip3(0.4, 1, 1, 2)])
def test_spec_oracle_monte_carlo(spec):
    # the exact oracle beyond gossip1: boosts, and timeouts with m > 0
    g = random_graph(9, 0.3, 11)
    assert g.degrees[0] > 0
    assert _monte_carlo_matches(g, spec, spec_receive_probabilities(g, 0, spec))


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
