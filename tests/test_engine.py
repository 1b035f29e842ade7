import hashlib
import mmap
import multiprocessing
from multiprocessing.reduction import ForkingPickler

import numpy as np
import pytest

from gossipsim import (
    FLOODING,
    Gossip1,
    Gossip2,
    Gossip3,
    Gossip4,
    Graph,
    Grid,
    RandomGeometric,
    RegularMesh,
    build_topology,
    grid_index,
    hop_distances,
    iter_batch,
    run_execution,
)
from gossipsim import engine, topology
from gossipsim.topology import ball_distances, zone_levels
from gossipsim.rng import child_seed, unit_uniforms

from conftest import line_graph, random_graph
from spec import assert_matches_spec


def test_flooding_is_bfs(grid20x50):
    src = grid_index(20, 50, 10, 0)
    dm = hop_distances(grid20x50, src)
    tr = run_execution(grid20x50, src, FLOODING, 31337)
    assert tr.received.all()
    assert tr.broadcast_count == grid20x50.n
    assert np.array_equal(tr.hop, dm.dist)
    assert np.array_equal(tr.receive_round, dm.dist)
    # parents are real edges one hop closer
    for v in range(grid20x50.n):
        if v != src:
            assert tr.parent[v] in grid20x50.neighbors(v)
            assert tr.hop[v] == tr.hop[tr.parent[v]] + 1


def test_p_zero_reaches_only_neighbors(grid20x50):
    src = grid_index(20, 50, 3, 3)
    tr = run_execution(grid20x50, src, Gossip1(0.0, 1), 5)
    assert tr.broadcast_count == 1
    assert tr.received.sum() == 1 + grid20x50.degrees[src]
    assert set(np.flatnonzero(tr.received)) == {src} | set(grid20x50.neighbors(src))
    # hops 0..k-1 forward with certainty, so p = 0 stops the message one hop past the zone
    tr = run_execution(line_graph(8), 0, Gossip1(0.0, 3), 5)
    assert list(np.flatnonzero(tr.forwarded)) == [0, 1, 2]
    assert list(np.flatnonzero(tr.received)) == [0, 1, 2, 3]


def test_k0_source_may_decline():
    g = line_graph(5)
    # find seeds where the source declines / forwards under p=0.5, k=0
    declined = forwarded = False
    for seed in range(20):
        tr = run_execution(g, 0, Gossip1(0.5, 0), seed)
        if tr.broadcast_count == 0:
            declined = True
            assert tr.received.sum() == 1  # only the source
        if tr.forwarded[0]:
            forwarded = True
    assert declined and forwarded


def test_source_trace_fields(grid20x50):
    tr = run_execution(grid20x50, 17, Gossip1(0.5, 1), 99)
    assert tr.received[17] and tr.receive_round[17] == 0
    assert tr.hop[17] == 0 and tr.parent[17] == -1 and tr.L_at_receipt[17] == 0


def test_at_most_once_and_receive_causality():
    g = random_graph(40, 0.12, 3)
    for seed in range(10):
        tr = run_execution(g, 0, Gossip1(0.6, 2), seed)
        assert tr.broadcast_count == int(tr.forwarded.sum())
        assert np.all(~tr.forwarded | tr.received)  # forwarded => received
        for v in np.flatnonzero(tr.received):
            if v == 0:
                continue
            p = tr.parent[v]
            assert tr.forwarded[p]
            assert tr.hop[v] == tr.hop[p] + 1
            assert tr.receive_round[v] > tr.receive_round[p] or tr.timeout_forward[p]


def test_batch_determinism(grid20x50):
    a = list(iter_batch(grid20x50, 0, Gossip1(0.65, 4), 5, 424242))
    b = list(iter_batch(grid20x50, 0, Gossip1(0.65, 4), 5, 424242))
    for x, y in zip(a, b):
        assert x.same_outcome(y) and x.seed == y.seed


def test_batch_uses_child_seeds(grid20x50):
    (only,) = list(iter_batch(grid20x50, 0, Gossip1(0.65, 4), 1, 77))
    direct = run_execution(grid20x50, 0, Gossip1(0.65, 4), child_seed(77, 0))
    assert only.same_outcome(direct)


def test_flooding_batch_identical_coverage(grid20x50):
    traces = list(iter_batch(grid20x50, 0, FLOODING, 10, 5))
    for tr in traces:
        assert tr.received.all() and tr.broadcast_count == grid20x50.n


def test_workers_do_not_change_results(grid20x50):
    isolated = Graph(6, np.array([[0, 1], [1, 2], [2, 3], [3, 4], [1, 3]]))  # node 5 has no neighbours
    cases = [
        (grid20x50, spec, 8, 2) for spec in (Gossip1(0.7, 4), Gossip2(0.4, 1, 0.9, 4), Gossip3(0.5, 1, 1, 2))
    ] + [
        # chunks of 2 runs through a ring of 4 slots, wrapped, the last chunk one run short
        (grid20x50, FLOODING, 37, 2),
        (isolated, Gossip3(0.4, 1, 1, 1), 37, 2),
        # one chunk per worker
        (grid20x50, Gossip4(0.6, 1, 2), 2, 2),
        (isolated, Gossip1(0.5, 0), 2, 2),
    ]
    for g, spec, runs, workers in cases:
        seq = list(iter_batch(g, 0, spec, runs, 2024, workers=1))
        par = list(iter_batch(g, 0, spec, runs, 2024, workers=workers))
        assert len(par) == runs, (spec, runs)
        for a, b in zip(seq, par):
            assert a.same_outcome(b) and (a.seed, a.protocol) == (b.seed, b.protocol), (spec, runs)
            # a pooled trace is as read-only as a local one, and a lean one keeps hop as its receive_round
            for name in engine._ARRAY_FIELDS:
                assert not getattr(b, name).flags.writeable, name
            assert (b.hop is b.receive_round) == (a.hop is a.receive_round), spec
        # gossip3 with m > 0 ships its timeout fields through the pool
        if isinstance(spec, Gossip3):
            assert any(tr.timeout_forward.any() and tr.L_at_receipt.any() for tr in par), g.n


def test_abandoned_pooled_batch_closes_its_ring_after_the_pool(grid20x50, monkeypatch):
    children_at_close = []

    class RecordingRing(mmap.mmap):
        def close(self):
            children_at_close.append(multiprocessing.active_children())
            super().close()

    monkeypatch.setattr(engine.mmap, "mmap", RecordingRing)
    spec = Gossip1(0.7, 4)
    gen = iter_batch(grid20x50, 0, spec, 37, 2024, workers=2)
    kept = [next(gen), next(gen)]
    gen.close()  # with chunks still in flight
    assert children_at_close == [[]]
    assert multiprocessing.active_children() == []
    # the yielded traces are copies, readable once the ring is gone
    seq = list(iter_batch(grid20x50, 0, spec, 2, 2024))
    assert all(a.same_outcome(b) for a, b in zip(seq, kept))


@pytest.mark.parametrize("graph, spec, runs, cap, chunk", [
    # a cap of half a record: one run per chunk, 37 chunks through 4 slots
    (Grid(20, 50), Gossip3(0.5, 1, 1, 2), 37, 0.5, 1),
    # 4 runs per chunk by the cap (runs // 16 is 6), the last of 26 chunks one run
    (Grid(20, 50), Gossip3(0.5, 1, 1, 2), 101, 4, 4),
    # the default cap holds 5 of the 300x300 grid's 0.73 MB lean records at 4 MiB; 20 chunks, the last one run
    (Grid(300, 300), Gossip1(0.5, 0), 96, None, 5),
])
def test_ring_slots_capped_and_released_before_reuse(graph, spec, runs, cap, chunk, monkeypatch):
    g = build_topology(graph)
    record = engine._record_layout(g.n, spec)[-1][-1]
    if cap is not None:
        monkeypatch.setattr(engine, "SLOT_BYTES", int(cap * record))  # in records
    events, mapped = [], []

    class RecordingRing(mmap.mmap):
        def __new__(cls, fileno, length):
            mapped.append(length)
            return super().__new__(cls, fileno, length)

        def madvise(self, option, start, length):
            assert option == mmap.MADV_REMOVE
            events.append(("release", start, length))
            super().madvise(option, start, length)

    fork = engine.multiprocessing.get_context("fork")

    class RecordingPool:
        def __init__(self, *args, **kwargs):
            self.pool = fork.Pool(*args, **kwargs)

        def __enter__(self):
            self.pool.__enter__()
            return self

        def __exit__(self, *exc):
            return self.pool.__exit__(*exc)

        def apply_async(self, func, args):
            events.append(("submit", args[0], len(args[1])))
            return self.pool.apply_async(func, args)

    class RecordingContext:
        Pool = RecordingPool

    monkeypatch.setattr(engine.mmap, "mmap", RecordingRing)
    monkeypatch.setattr(engine.multiprocessing, "get_context", lambda method: RecordingContext())
    par = list(iter_batch(g, 0, spec, runs, 2024, workers=2))
    seq = list(iter_batch(g, 0, spec, runs, 2024, workers=1))
    assert len(par) == runs and all(a.same_outcome(b) for a, b in zip(seq, par))
    if isinstance(spec, Gossip3):
        assert any(tr.timeout_forward.any() for tr in par)
    page = mmap.PAGESIZE
    chunks = -(-runs // chunk)
    assert chunks >= 3 * 4  # the ring of 4 slots wraps 3 times
    assert chunk == 1 or runs % chunk == 1  # a batch of larger chunks ends on a one-run chunk
    slot = -(-chunk * record // page) * page
    assert mapped == [4 * slot] and slot <= -(-max(engine.SLOT_BYTES, record) // page) * page
    # each slot is released once per chunk, after its chunk is copied out and
    # before the chunk that reuses it is submitted
    expected = [("submit", j * slot, chunk) for j in range(4)]
    for j in range(chunks):
        expected.append(("release", j % 4 * slot, slot))
        if j + 4 < chunks:
            expected.append(("submit", (j + 4) % 4 * slot, min(chunk, runs - (j + 4) * chunk)))
    assert events == expected


def _through_ring(g, spec, seeds, monkeypatch):
    """Each seed's run as a pool worker ships it, read back from its ring record;
    the worker's result, the only thing the pipe carries, is None."""
    monkeypatch.setattr(engine, "_POOL_STATE", {})
    layout = engine._record_layout(g.n, spec)
    ring = mmap.mmap(-1, len(seeds) * layout[-1][-1])
    try:
        engine._pool_init(g, 0, spec, ring)
        assert engine._pool_run(0, seeds) is None
        return engine._read_records(ring, layout, 0, seeds, 0, spec)
    finally:
        ring.close()


def test_ring_round_trip_every_protocol(monkeypatch):
    g = random_graph(40, 0.1, 5)
    single = Graph(1, np.zeros((0, 2), dtype=np.int64))
    isolated = Graph(4, np.array([[1, 2], [2, 3]]))  # node 0 has no neighbours
    specs = [FLOODING, Gossip1(0.6, 1), Gossip2(0.4, 1, 0.9, 4), Gossip4(0.6, 1, 2), Gossip3(0.5, 1, 0, 2),
             Gossip3(0.4, 1, 1, 2), Gossip3(0.0, 0, 1, 2)]
    timed_out = False
    for graph in (g, single, isolated, random_graph(100, 0.05, 1), build_topology(Grid(300, 300))):
        for spec in specs:
            backs = _through_ring(graph, spec, list(range(10)), monkeypatch)
            for seed, back in enumerate(backs):
                tr = run_execution(graph, 0, spec, seed)
                assert back.same_outcome(tr), (graph.n, spec, seed)
                assert (back.source, back.protocol, back.seed) == (tr.source, tr.protocol, tr.seed)
                for name in engine._ARRAY_FIELDS:
                    assert getattr(back, name).dtype == getattr(tr, name).dtype, name
                    assert not getattr(back, name).flags.writeable, name
                # a lean trace's hop is its receive_round, on both sides
                lean = not (isinstance(spec, Gossip3) and spec.m > 0)
                assert (back.hop is back.receive_round) == lean
                assert (tr.hop is tr.receive_round) == lean
                timed_out |= bool(tr.timeout_forward.any())
    assert timed_out


def test_ring_record_writes_only_what_cannot_be_rebuilt():
    # only gossip3 with m > 0 can set hop apart from receive_round, timeout
    # flags or L, so only its record holds them
    lean = ["receive_round", "parent", "forwarded"]
    keyed = lean + ["hop", "timeout_forward", "L_at_receipt"]
    for n in (1, 7, 8, 9, 1000):
        bits = -(-n // 8)
        cases = [(spec, lean, 8 * n + bits) for spec in (
            FLOODING, Gossip1(0.7, 4), Gossip2(0.4, 1, 0.9, 4), Gossip4(0.6, 1, 2), Gossip3(0.5, 1, 0, 2))]
        for spec, fields, size in cases + [(Gossip3(0.5, 1, 1, 2), keyed, 16 * n + 2 * bits)]:
            layout = engine._record_layout(n, spec)
            assert [field for field, *_ in layout] == fields, (n, spec)
            # packed end to end, ints as int32 and booleans as bits
            assert [start for _, _, start, _ in layout] == [0] + [end for *_, end in layout[:-1]]
            assert [(dtype, end - start) for _, dtype, start, end in layout] == [
                (np.uint8, bits) if field in ("forwarded", "timeout_forward") else (np.int32, 4 * n)
                for field in fields]
            assert layout[-1][-1] == size, (n, spec)


@pytest.mark.parametrize("topology", [None, Grid(300, 300)])
def test_pool_result_pickles_to_a_few_bytes_per_run(topology, monkeypatch):
    # the arrays go through the ring; the result pipe carries no data
    g = random_graph(100, 0.05, 1) if topology is None else build_topology(topology)
    seeds = [child_seed(7, i) for i in range(4)]
    for spec in (FLOODING, Gossip3(0.5, 1, 1, 2)):
        monkeypatch.setattr(engine, "_POOL_STATE", {})
        layout = engine._record_layout(g.n, spec)
        ring = mmap.mmap(-1, len(seeds) * layout[-1][-1])
        try:
            engine._pool_init(g, 0, spec, ring)
            result = engine._pool_run(0, seeds)
            assert len(ForkingPickler.dumps(result)) <= 16 * len(seeds), (g.n, spec, result)
            back = engine._read_records(ring, layout, 0, seeds, 0, spec)
        finally:
            ring.close()
        for seed, tr in zip(seeds, back):
            assert tr.same_outcome(run_execution(g, 0, spec, seed)), (g.n, spec, seed)


def test_pool_size_capped_at_run_count(grid20x50, monkeypatch):
    # more workers than runs: the pool gets one process per run, and no pool for one run
    fork = engine.multiprocessing.get_context("fork")
    sizes = []

    class RecordingContext:
        def Pool(self, processes, **kwargs):
            sizes.append(processes)
            return fork.Pool(min(processes, 2), **kwargs)  # never more than 2 real processes

    monkeypatch.setattr(engine.multiprocessing, "get_context", lambda method: RecordingContext())
    spec = Gossip1(0.7, 4)
    for runs in (1, 2):
        par = list(iter_batch(grid20x50, 0, spec, runs, 2024, workers=64))
        seq = list(iter_batch(grid20x50, 0, spec, runs, 2024, workers=1))
        assert len(par) == runs and all(a.same_outcome(b) for a, b in zip(seq, par))
    assert sizes == [2]


def test_gossip3_timeout_chain_on_a_line():
    # p=0 outside the k zone: propagation advances only via timeout forwards.
    g = line_graph(5)
    tr = run_execution(g, 0, Gossip3(0.0, 1, 1, 2), 11)
    assert tr.received.all()
    assert tr.broadcast_count == 5
    assert list(tr.receive_round) == [0, 1, 5, 9, 13]
    assert list(tr.hop) == [0, 1, 2, 3, 4]
    assert list(tr.L_at_receipt) == [0, 0, 1, 2, 3]
    assert list(tr.timeout_forward) == [False, True, True, True, True]
    assert list(tr.sent_L()) == [0, 1, 2, 3, 4]


def test_gossip3_timeout_counter_does_not_wrap_on_a_long_line():
    # Every node on the line times out, so L grows by one per hop; the
    # counter must hold values past the int16 range without wrapping.
    n = 33_000
    tr = run_execution(line_graph(n), 0, Gossip3(0.0, 0, 1, 1), 5)
    assert tr.received.all() and tr.timeout_forward.all()
    assert tr.L_at_receipt[-1] == n - 1
    assert tr.sent_L().max() == n


def test_gossip3_second_copy_suppresses_timeout():
    # diamond: 0-1, 0-2, 1-3, 2-3; flooding-strength k zone covers 1 hop.
    g = random_graph(4, 0.0, 1)  # start empty, then build explicitly
    import numpy as _np
    from gossipsim import Graph

    g = Graph(4, _np.array([[0, 1], [0, 2], [1, 3], [2, 3]]))
    # k=2: nodes 1 and 2 both forward; node 3 receives two copies in the same
    # round, declines (p=0), but the second copy suppresses its timeout.
    tr = run_execution(g, 0, Gossip3(0.0, 2, 1, 2), 7)
    assert tr.received[3] and not tr.forwarded[3]
    assert not tr.timeout_forward.any()
    assert tr.broadcast_count == 3


def test_gossip3_m0_never_times_out():
    g = line_graph(6)
    tr = run_execution(g, 0, Gossip3(0.0, 1, 0, 2), 3)
    assert not tr.timeout_forward.any()
    assert tr.received.sum() == 2  # source + its neighbor


def test_same_round_tie_break_min_hop_min_sender():
    # 0-1, 0-2, 1-3, 2-3: node 3 hears 1 and 2 in the same round; parent is
    # the lowest-id sender among minimum-hop copies.
    from gossipsim import Graph

    g = Graph(4, np.array([[0, 1], [0, 2], [1, 3], [2, 3]]))
    tr = run_execution(g, 0, FLOODING, 1)
    assert tr.parent[3] == 1
    assert tr.hop[3] == 2


def test_gossip2_boost_via_low_degree_sender():
    # path 0-1-2: node 1 has degree 2 < n_thresh, so its copy carries the
    # boost and node 2 forwards with p2=1 even though p1=0.
    g = line_graph(3)
    tr = run_execution(g, 0, Gossip2(0.0, 1, 1.0, 6), 13)
    assert tr.received.all()
    assert tr.forwarded[1] is not None  # node 1 inside k zone, forwards
    assert tr.forwarded[2]


def test_gossip2_no_boost_from_high_degree_sender():
    # star center 0 with 8 leaves, n_thresh=3: center degree 8 sends no boost,
    # leaves use p1=0 and never forward.
    from gossipsim import Graph

    edges = np.array([[0, i] for i in range(1, 9)])
    g = Graph(9, edges)
    tr = run_execution(g, 0, Gossip2(0.0, 1, 1.0, 3), 21)
    assert tr.received.all()
    assert tr.broadcast_count == 1  # only the source


def test_invalid_inputs():
    g = line_graph(3)
    with pytest.raises(ValueError):
        run_execution(g, 5, FLOODING, 1)
    with pytest.raises(ValueError):
        run_execution(g, 0, Gossip1(1.5, 1), 1)
    with pytest.raises(ValueError):
        list(iter_batch(g, 0, FLOODING, 0, 1))
    for workers in (0, -3):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            list(iter_batch(g, 0, FLOODING, 4, 1, workers=workers))


def test_gossip4_propagates_like_gossip1():
    g = random_graph(60, 0.08, 9)
    a = run_execution(g, 0, Gossip4(0.6, 2, 5), 1234)
    b = run_execution(g, 0, Gossip1(0.6, 2), 1234)
    assert a.same_outcome(b)


def test_loop_choice_by_spec(monkeypatch):
    # a loop set to None fails if called, so each spec must take the other
    g = line_graph(4)
    with monkeypatch.context() as m:
        m.setattr(engine, "_keyed_rounds", None)
        for spec in (FLOODING, Gossip1(0.5, 1), Gossip4(0.5, 1, 2), Gossip3(0.5, 1, 0, 2),
                     Gossip2(0.5, 1, 0.9, 3)):
            run_execution(g, 0, spec, 3)
    monkeypatch.setattr(engine, "_lean_rounds", None)
    run_execution(g, 0, Gossip3(0.5, 1, 1, 2), 3)


def test_engine_extremes_match_spec():
    single = Graph(1, np.zeros((0, 2), dtype=np.int64))
    # node 0 has no neighbours; 1-2-3 is a path
    isolated = Graph(4, np.array([[1, 2], [2, 3]]))
    g = random_graph(40, 0.1, 5)
    cases = [(single, 0, spec) for spec in (FLOODING, Gossip1(0.0, 0), Gossip1(0.5, 0), Gossip1(1.0, 0))]
    cases += [(isolated, 0, FLOODING), (isolated, 0, Gossip1(0.5, 0)), (isolated, 1, Gossip4(0.3, 0, 1))]
    cases += [(g, 0, Gossip1(p, k)) for p in (0.0, 1.0) for k in (0, 1, 3)]
    # gossip2: no sender boosts (n_thresh 1), every sender boosts (above the
    # maximum degree), p1 == p2, p1 = 0 with p2 = 1, k = 0, a degree-0 source
    top = int(g.degrees.max()) + 1
    cases += [(g, 0, Gossip2(0.3, 1, 0.8, 1)), (g, 0, Gossip2(0.3, 1, 0.8, top)),
              (g, 0, Gossip2(0.5, 1, 0.5, 4)), (g, 0, Gossip2(0.0, 1, 1.0, 4)),
              (g, 0, Gossip2(0.4, 0, 0.9, 4)), (isolated, 0, Gossip2(0.4, 0, 0.9, 4)),
              (isolated, 0, Gossip2(0.2, 1, 0.7, 2))]
    # gossip3 with m > 0: a degree-0 source that declines and times out, k = 0
    # (a closed source), m above the maximum degree, timeouts of 1 and 6 rounds,
    # the one-node graph
    cases += [(isolated, 0, Gossip3(0.0, 0, 1, 2)), (g, 0, Gossip3(0.5, 0, 1, 2)), (g, 0, Gossip3(0.5, 1, top, 2)),
              (g, 0, Gossip3(0.4, 1, 1, 1)), (g, 0, Gossip3(0.4, 1, 2, 6)), (single, 0, Gossip3(0.5, 0, 1, 3))]
    for graph, source, spec in cases:
        for seed in range(20):
            tr = run_execution(graph, source, spec, seed)
            assert_matches_spec(tr, graph)
            for arr in (tr.received, tr.receive_round, tr.hop, tr.parent,
                        tr.forwarded, tr.timeout_forward, tr.L_at_receipt):
                assert not arr.flags.writeable
    # a degree-0 source that forwards broadcasts once and reaches no one
    tr = run_execution(isolated, 0, FLOODING, 1)
    assert tr.broadcast_count == 1 and tr.received.sum() == 1
    # ... and so does one that declines, hears nothing, and times out
    tr = run_execution(isolated, 0, Gossip3(0.0, 0, 1, 2), 1)
    assert tr.broadcast_count == 1 and tr.timeout_forward[0] and tr.received.sum() == 1
    # k = 0 and a closed source: nothing is sent
    seed = next(s for s in range(100) if unit_uniforms(s, np.arange(g.n))[0] >= 0.5)
    for spec in (Gossip1(0.5, 0), Gossip2(0.5, 0, 0.5, top)):
        tr = run_execution(g, 0, spec, seed)
        assert tr.broadcast_count == 0 and tr.received.sum() == 1
        assert_matches_spec(tr, g)
    # under gossip3 the closed source hears nothing and times out: its copy
    # leaves timeout_rounds + 1 rounds after the start, carrying L = 1
    tr = run_execution(g, 0, Gossip3(0.5, 0, 1, 2), seed)
    assert tr.timeout_forward[0] and set(tr.receive_round[g.neighbors(0)]) == {4}
    assert set(tr.L_at_receipt[g.neighbors(0)]) == {1}
    assert_matches_spec(tr, g)


@pytest.mark.parametrize("spec", [FLOODING, Gossip1(0.6, 1), Gossip2(0.4, 1, 0.9, 4), Gossip3(0.5, 1, 0, 2),
                                  Gossip3(0.3, 1, 1, 2), Gossip3(0.0, 0, 2, 1), Gossip4(0.6, 1, 2)])
def test_gather_calls_match_send_rounds(monkeypatch, spec):
    # the tracer's recount: one engine gather call per distinct send round,
    # where a timeout forward sends timeout_rounds + 1 rounds after receipt
    g = random_graph(40, 0.1, 17)
    calls = []
    gather = engine.gather_neighbors
    monkeypatch.setattr(engine, "gather_neighbors", lambda *a: calls.append(1) or gather(*a))
    for seed in range(15):
        calls.clear()
        tr = run_execution(g, seed % 7, spec, seed)
        fwd = tr.forwarded
        send_round = tr.receive_round[fwd].astype(np.int64)
        send_round[tr.timeout_forward[fwd]] += getattr(spec, "timeout_rounds", 0) + 1
        assert len(calls) == np.unique(send_round).size, (spec, seed)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 255, 256, 257])
def test_key_layout_at_bit_length_edges_matches_spec(n):
    # a key holds parent + 1 in its low n.bit_length() bits, so n - 1 is the
    # largest id those bits carry; a path, a star, and a path over half the
    # nodes with the rest isolated, each from both ends, under both loops, k = 0
    # (so a source whose draw fails is closed) included
    ends = np.column_stack([np.arange(n - 1), np.arange(1, n)])
    star = np.column_stack([np.zeros(n - 1, dtype=np.int64), np.arange(1, n)])
    graphs = [Graph(n, ends), Graph(n, star), Graph(n, ends[:n // 2])]
    specs = [FLOODING, Gossip1(0.5, 1), Gossip1(0.5, 0), Gossip2(0.3, 1, 0.9, 2), Gossip3(0.5, 1, 1, 2),
             Gossip3(0.5, 0, 1, 2), Gossip3(0.3, 0, 2, 1)]
    for g in graphs:
        for source in {0, n - 1}:
            for spec in specs:
                for seed in range(4):
                    tr = run_execution(g, source, spec, seed)
                    assert_matches_spec(tr, g)
                    lost = ~tr.received
                    assert (tr.hop[lost] == -1).all() and (tr.receive_round[lost] == -1).all()
                    assert (tr.parent[lost] == -1).all() and tr.parent[source] == -1
    # the isolated nodes of the half path are never reached
    tr = run_execution(graphs[2], 0, FLOODING, 0)
    assert not tr.received[n // 2 + 1:].any()


def test_decode_at_the_widest_shift():
    # n = 2**31 - 1 gives shift 31, the widest an int32 parent allows: the
    # largest id and level decode, and so do the source's key 0 and the
    # unreached key, with no graph of that size
    s, n = 31, 2**31 - 1
    top = np.iinfo(np.int32).max
    cases = [(0, 0, -1), (1 << s | 1, 1, 0), (5 << s | n, 5, n - 1), (top << s | 8, top, 7),
             (np.iinfo(np.int64).max & -(1 << s), -1, -1)]
    keys = np.array([key for key, _, _ in cases], dtype=np.int64)
    assert (np.diff(keys) > 0).all()  # keys order as (level, parent) with the unreached key last
    received, level, parent = engine._decode(keys, s)
    assert level.dtype == parent.dtype == np.int32
    assert level.tolist() == [lv for _, lv, _ in cases] and parent.tolist() == [p for _, _, p in cases]
    assert received.tolist() == [True] * 4 + [False]


def test_lean_loop_long_path_under_flooding(monkeypatch):
    # one send round per node, each one call of the engine's gather_neighbors
    n = 20_000
    g = line_graph(n)
    calls = []
    gather = engine.gather_neighbors
    monkeypatch.setattr(engine, "gather_neighbors", lambda *a: calls.append(1) or gather(*a))
    tr = run_execution(g, 0, FLOODING, 9)
    assert len(calls) == n
    assert np.array_equal(tr.hop, hop_distances(g, 0).dist)
    assert np.array_equal(tr.receive_round, tr.hop)
    assert tr.parent[0] == -1 and np.array_equal(tr.parent[1:], np.arange(n - 1))
    assert tr.broadcast_count == n
    assert_matches_spec(tr, g)


def _graphs_with_layout(monkeypatch, ratio: float) -> list:
    """Test graphs built with the table size bound set to `ratio`."""
    monkeypatch.setattr(topology, "TABLE_MAX_RATIO", ratio)
    isolated = Graph(6, np.array([[1, 2], [2, 3], [3, 4]]))  # nodes 0 and 5 alone
    star = Graph(30, np.column_stack([np.zeros(29, dtype=np.int64), np.arange(1, 30)]))
    return [random_graph(40, 0.1, 5), random_graph(25, 0.3, 8), isolated, star, line_graph(12)]


def test_layouts_give_equal_traces_and_gather_calls(monkeypatch):
    # every spec on each graph, table forced on (bound inf) and off (bound 0):
    # equal traces, equal gather calls, and the id n in no output
    specs = [FLOODING, Gossip1(0.6, 1), Gossip2(0.3, 1, 0.9, 4), Gossip3(0.5, 1, 0, 2),
             Gossip3(0.4, 1, 1, 2), Gossip3(0.3, 0, 2, 1), Gossip4(0.6, 1, 2)]
    outcomes = {}
    for ratio in (float("inf"), 0):
        graphs = _graphs_with_layout(monkeypatch, ratio)
        assert all((g.table is not None) == (ratio > 0) for g in graphs)
        calls = []
        gather = engine.gather_neighbors
        monkeypatch.setattr(engine, "gather_neighbors", lambda *a: calls.append(1) or gather(*a))
        runs = []
        for g in graphs:
            for spec in specs:
                for seed in range(8):
                    calls.clear()
                    tr = run_execution(g, seed % g.n, spec, seed)
                    for name in engine._ARRAY_FIELDS:
                        assert getattr(tr, name).shape == (g.n,), name
                    assert tr.parent.max() < g.n
                    runs.append((tr, len(calls)))
            dm = hop_distances(g, 0)
            nodes, dists = ball_distances(g, 0, 2)
            level = zone_levels(g, tr.received, 2)
            assert dm.dist.shape == level.shape == (g.n,) and nodes.max() < g.n
            runs.append((dm.dist, nodes, dists, level))
        monkeypatch.setattr(engine, "gather_neighbors", gather)
        outcomes[ratio] = runs
    for a, b in zip(outcomes[float("inf")], outcomes[0]):
        if isinstance(a[0], engine.ExecutionTrace):
            assert a[0].same_outcome(b[0]) and a[1] == b[1]
        else:
            assert all(np.array_equal(x, y) for x, y in zip(a, b))


# SHA-256 of seeds 0-4 of every (graph, protocol) pair, recorded before the
# engine's per-round vectorisation was last reworked.  Any change to a trace
# array, its dtype or a broadcast count changes the digest.
_PINNED_TRACE_DIGESTS = {
    ("grid 20 50", "flooding"): "2c5945915b2de18a57b0aca4630e5558b75b763103dc4554e997384d3c6470b4",
    ("grid 20 50", "gossip1 0.65 4"): "273e86715e0d93e3031a946d9464d753c59a5c7a2cfa5c74929737aa8b719331",
    ("grid 20 50", "gossip2 0.6 4 1.0 6"): "2c5945915b2de18a57b0aca4630e5558b75b763103dc4554e997384d3c6470b4",
    ("grid 20 50", "gossip3 0.65 4 1 2"): "968147ddc3d178ff02e08a18269b196271d44d77d378d6f6d64ac0f56ea7c63f",
    ("grid 20 50", "gossip4 0.65 1 3"): "406a5c422ad59a8f91b64d585f2d308f2a958d499edfe01e692392f5e5faf789",
    ("mesh3 10 10", "flooding"): "70bbc9fff6821dca245aa35acb467d432c540091e369c278a6029c82f147138d",
    ("mesh3 10 10", "gossip1 0.65 4"): "5140634a37357c79d83d1d9dd82e223a96a1f6f567c4ebc81dc4c7f16e504d15",
    ("mesh3 10 10", "gossip2 0.6 4 1.0 6"): "70bbc9fff6821dca245aa35acb467d432c540091e369c278a6029c82f147138d",
    ("mesh3 10 10", "gossip3 0.65 4 1 2"): "92ddd876b746c4bb3441e1c1c9c8d1a06e242805169f0f90b5d8b47d894fa5dd",
    ("mesh3 10 10", "gossip4 0.65 1 3"): "884a355482e31a8e363938cf1e69ca5d103d9d995f4544cd38274741613680ef",
    ("mesh6 10 10", "flooding"): "0dbab02609561493bdbe5ee27a9e4cf05c5016c6f324b8a4c9e1ad2190b1ce86",
    ("mesh6 10 10", "gossip1 0.65 4"): "1339355811e95ed884d10e618648956158fdc7b87a6604ed98dcb5652baaf909",
    ("mesh6 10 10", "gossip2 0.6 4 1.0 6"): "fee89348800e446d7bb1cf5351ea4ab473136f89eddabc8a4eb792776bdfa200",
    ("mesh6 10 10", "gossip3 0.65 4 1 2"): "f1bfe08e7bef18506d8e60194d0184727a621f9756b33059e839e30be129a3f8",
    ("mesh6 10 10", "gossip4 0.65 1 3"): "b27f0b7a83d0279de8cb139f7f0a43e7e819c58663ba26dbced65e965d7ffe18",
    ("rgg 1000 7500 3000 250 38", "flooding"): "db129aee73907c52ddbcabe73046887061f3ebe136901073a14fd2e5401e37b4",
    ("rgg 1000 7500 3000 250 38", "gossip1 0.65 4"): "419479c5565b54d104f5cae4d957cfa54801343afd53cc2a52cb427331c1dff3",
    ("rgg 1000 7500 3000 250 38", "gossip2 0.6 4 1.0 6"): "da1cb804e66cbbcdf8f96e485980d3c5ac2def3dcdd4cee3cdedcf4195fd8726",
    ("rgg 1000 7500 3000 250 38", "gossip3 0.65 4 1 2"): "733d63b45b76565f3538f0e3862522df097399a720d5436be69c554f67aff725",
    ("rgg 1000 7500 3000 250 38", "gossip4 0.65 1 3"): "a1cdfecc914d296e4898b1b0aabe47795210609cb317a6e04155eb07977ee885",
}


def _trace_digest(traces) -> str:
    h = hashlib.sha256()
    for tr in traces:
        for arr in (tr.received, tr.receive_round, tr.hop, tr.parent,
                    tr.forwarded, tr.timeout_forward, tr.L_at_receipt):
            h.update(arr.dtype.str.encode())
            h.update(arr.tobytes())
        h.update(str(tr.broadcast_count).encode())
    return h.hexdigest()


def test_traces_match_pinned_digests():
    graphs = {
        "grid 20 50": (Grid(20, 50), grid_index(20, 50, 10, 0)),
        "mesh3 10 10": (RegularMesh(3, 10, 10), grid_index(10, 10, 5, 5)),
        "mesh6 10 10": (RegularMesh(6, 10, 10), grid_index(10, 10, 5, 5)),
        "rgg 1000 7500 3000 250 38": (RandomGeometric(1000, 7500, 3000, 250, 38), None),
    }
    protocols = {
        "flooding": FLOODING,
        "gossip1 0.65 4": Gossip1(0.65, 4),
        "gossip2 0.6 4 1.0 6": Gossip2(0.6, 4, 1.0, 6),
        "gossip3 0.65 4 1 2": Gossip3(0.65, 4, 1, 2),
        "gossip4 0.65 1 3": Gossip4(0.65, 1, 3),
    }
    mismatched = []
    for gname, (topo, src) in graphs.items():
        g = build_topology(topo)
        if src is None:
            src = int(np.argmax(g.degrees))  # node 48, in the giant component
        for pname, spec in protocols.items():
            digest = _trace_digest(run_execution(g, src, spec, s) for s in range(5))
            if digest != _PINNED_TRACE_DIGESTS[gname, pname]:
                mismatched.append((gname, pname))
    assert not mismatched
