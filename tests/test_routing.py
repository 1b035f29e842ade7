import io

import numpy as np
import pytest

from gossipsim import (
    FLOODING,
    Gossip1,
    Gossip3,
    Gossip4,
    Graph,
    RandomGeometric,
    build_topology,
    grid_index,
    hop_distances,
    run_execution,
)
from gossipsim.rng import child_seed
from gossipsim.routing import RouteQuery, discover_route, query_for, route_results_to_csv

from conftest import line_graph, random_graph


def test_query_validation():
    with pytest.raises(ValueError):
        RouteQuery(source=1, dest=1, protocol=FLOODING)
    with pytest.raises(ValueError):
        RouteQuery(source=0, dest=1, protocol=FLOODING, max_attempts=0)
    q = query_for(None, 0, 1, Gossip4(0.6, 1, 3))
    assert q.zone_radius == 3


def test_flooding_finds_shortest_route(grid20x50):
    src = grid_index(20, 50, 10, 0)
    dest = grid_index(20, 50, 4, 30)
    r = discover_route(grid20x50, query_for(grid20x50, src, dest, FLOODING), 1)
    assert r.found and r.attempts_used == 1
    assert r.route_length == r.shortest_length == 6 + 30
    assert r.total_broadcasts == grid20x50.n


def test_unreachable_destination():
    g = Graph(4, np.array([[0, 1], [2, 3]]))
    r = discover_route(g, query_for(g, 0, 3, FLOODING, max_attempts=3), 5)
    assert not r.found
    assert r.attempts_used == 3
    assert r.route_length is None
    assert r.shortest_length is None


def test_retry_uses_independent_child_seeds():
    g = line_graph(8)
    q = query_for(g, 0, 7, Gossip1(0.5, 1), max_attempts=4)
    r = discover_route(g, q, 12345)
    # reproducible: the same query and seed give the same result
    r2 = discover_route(g, q, 12345)
    assert (r.found, r.attempts_used, r.total_broadcasts) == (
        r2.found,
        r2.attempts_used,
        r2.total_broadcasts,
    )


def test_zone_delivery_route_length():
    # path 0-1-2-3-4; only node 1 receives (p=0, k=1); zone radius 3 reaches
    # the destination 4 through nodes 2 and 3.
    g = line_graph(5)
    q = RouteQuery(source=0, dest=4, protocol=Gossip4(0.0, 1, 3))
    r = discover_route(g, q, 9)
    assert r.found
    assert r.route_length == 1 + 3  # receiver hop 1, zone leg 3
    assert r.shortest_length == 4
    q0 = RouteQuery(source=0, dest=4, protocol=Gossip4(0.0, 1, 2))
    assert not discover_route(g, q0, 9).found


def test_discover_route_reuses_distance_map():
    g = build_topology(RandomGeometric(100, 2200, 600, 250, 34))
    src = int(np.argmin(g.coords[:, 0]))
    dm = hop_distances(g, src)
    dests = np.flatnonzero(dm.dist > 0)[::7]
    for spec in (FLOODING, Gossip1(0.5, 1), Gossip3(0.5, 1, 1, 2), Gossip4(0.5, 1, 2)):
        for j, dest in enumerate(dests):
            q = query_for(g, src, int(dest), spec, max_attempts=2)
            expected = discover_route(g, q, child_seed(3, j))
            assert discover_route(g, q, child_seed(3, j), dm) == expected
    other = hop_distances(g, int(dests[0]))
    with pytest.raises(ValueError):
        discover_route(g, query_for(g, src, int(dests[1]), FLOODING), 1, other)
    with pytest.raises(ValueError):
        discover_route(line_graph(5), query_for(None, src, 1, FLOODING), 1, dm)


def test_multi_attempt_success_matches_independence():
    # measured two-attempt rate ~= 1 - (1 - s)^2 for the measured s
    g = random_graph(60, 0.10, 42)
    dm = hop_distances(g, 0)
    dests = np.flatnonzero(dm.dist == 3)
    assert dests.size > 0
    dest = int(dests[0])
    n_q = 800
    one = two = 0
    for j in range(n_q):
        r = discover_route(g, query_for(g, 0, dest, Gossip1(0.4, 1), 2), child_seed(5, j))
        if r.found:
            two += 1
            if r.attempts_used == 1:
                one += 1
    s = one / n_q
    predicted = 1 - (1 - s) ** 2
    assert two / n_q == pytest.approx(predicted, abs=0.035)


def test_attempt_independence_chi_square():
    from scipy.stats import chi2_contingency

    g = random_graph(60, 0.10, 42)
    dm = hop_distances(g, 0)
    dest = int(np.flatnonzero(dm.dist == 3)[0])
    spec = Gossip1(0.4, 1)
    table = np.zeros((2, 2))
    for j in range(600):
        a = run_execution(g, 0, spec, child_seed(777, 2 * j)).received[dest]
        b = run_execution(g, 0, spec, child_seed(777, 2 * j + 1)).received[dest]
        table[int(a), int(b)] += 1
    _, p_value, _, _ = chi2_contingency(table)
    assert p_value > 0.001


def test_route_validity_parent_chain():
    g = random_graph(80, 0.08, 17)
    dm = hop_distances(g, 0)
    for seed in range(6):
        tr = run_execution(g, 0, Gossip1(0.7, 2), seed)
        for dest in np.flatnonzero(tr.received)[:20]:
            steps = 0
            v = int(dest)
            while v != 0:
                v = int(tr.parent[v])
                steps += 1
                assert steps <= g.n
            assert steps == tr.hop[dest]


def test_route_results_csv():
    g = line_graph(4)
    r = discover_route(g, query_for(g, 0, 3, FLOODING), 1)
    buf = io.StringIO()
    route_results_to_csv(buf, [(0, 3, r)])
    lines = buf.getvalue().splitlines()
    assert lines[0] == "src,dst,found,attempts,broadcasts,route_len,shortest_len"
    assert lines[1] == "0,3,1,1,4,3,3"
