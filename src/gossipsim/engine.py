"""Round-synchronous propagation engine with an ideal (loss-free) link layer.

Time advances in rounds; a broadcast sent in round t is received by every
neighbor in round t+1.  Each node decides whether to forward exactly once,
on first receipt; among copies arriving in the same round it adopts the
minimum hop (parent = that copy's sender, lowest id on ties), the OR of the
Gossip2 boost flags, and the maximum timeout counter L.  A Gossip3 node
that declined and heard fewer than m copies beyond its first by the end of
round t0 + timeout_rounds broadcasts unconditionally in the next round,
with L incremented.  No node ever broadcasts twice.

Randomness: the per-node forwarding draw comes from child stream `node`
of the execution seed, so a trace is a pure function of
(graph, source, spec, seed) regardless of traversal order.

Only Gossip3 with m > 0 takes the key-based round loop.  Each round the nodes
that first received in the round before decide: before round k all send (their
hops are below k), later on their draw; a decliner is checked timeout_rounds
rounds after its receipt, and if it is due a timeout it joins the next round's
senders, so its only send comes timeout_rounds + 1 rounds after receipt.  Its
key per node is hop << s | (parent + 1), s = n.bit_length(), inverted once the
node has received so that no later copy beats it, with the receive round, the
node's own send key and its copy count kept beside it.  Every other spec,
Gossip2 included, has no timeout: a node sends in the round after its first
receipt or never, so its hop is its receive round and its parent the lowest-id
sender of that round.  The lean loop keeps one key per node,
receive round << s | (parent + 1).  A Gossip2 copy from a sender of degree below
n_thresh, delivered to a node in the round it first receives, switches that
node's threshold from p1 to p2 before it decides, which is the OR of boosts.
Both loops decode their keys through `_decode` and call `gather_neighbors`
once per round that has a sender.  A gather may pad a sender's targets with
the sender itself (see `topology`): a sender has received, so a pad never
beats its key, and the copy count and L maximum a pad adds to are never read
once a node sends.  Every trace array has n entries.  A pooled run's worker
writes the arrays that the spec's loop can set (see `_record_layout`) into a
record of a shared anonymous `mmap`, a ring of 2 * workers slots of at most
SLOT_BYTES (one record at least), and the pipe carries no data.  The parent
rebuilds the trace from copies of the record (`_read_records`) and then
releases the slot's pages (MADV_REMOVE); no trace array is unpickled in the
pool's result thread.
"""

from __future__ import annotations

import mmap
import multiprocessing
from collections import deque
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .protocols import Gossip2, Gossip3, ProtocolSpec
from .rng import child_seed, unit_uniforms
from .topology import Graph, gather_neighbors

_NO_KEY = np.iinfo(np.int64).max
_ARRAY_FIELDS = ("received", "receive_round", "hop", "parent", "forwarded", "timeout_forward", "L_at_receipt")


@dataclass
class ExecutionTrace:
    """Per-node outcome of one simulated propagation; its arrays are read-only."""

    source: int
    protocol: ProtocolSpec
    seed: int
    received: np.ndarray        # bool
    receive_round: np.ndarray   # int32, -1 if never received
    hop: np.ndarray             # int32, hop count of first copy, -1 if none
    parent: np.ndarray          # int32, sender of first copy, -1 if none
    forwarded: np.ndarray       # bool
    timeout_forward: np.ndarray # bool, Gossip3 timeout broadcasts
    L_at_receipt: np.ndarray    # int32, timeout counter on the first copy
    broadcast_count: int

    def __post_init__(self):
        # read-only, whether built here or read from a pool's ring record: a
        # lean trace's hop and receive_round are one array
        for name in _ARRAY_FIELDS:
            getattr(self, name).flags.writeable = False

    def sent_L(self) -> np.ndarray:
        """L carried by each forwarder's broadcast (timeout forwards add 1)."""
        return (self.L_at_receipt + self.timeout_forward.astype(np.int32))[self.forwarded]

    def same_outcome(self, other: "ExecutionTrace") -> bool:
        """Trace equivalence ignoring the protocol/seed labels."""
        return (self.source, self.broadcast_count) == (other.source, other.broadcast_count) and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in _ARRAY_FIELDS
        )


def run_execution(g: Graph, source: int, spec: ProtocolSpec, seed: int) -> ExecutionTrace:
    """Simulate one propagation of a route request from `source`."""
    if not (0 <= source < g.n):
        raise ValueError(f"source {source} outside graph of size {g.n}")
    draws = unit_uniforms(seed, np.arange(g.n, dtype=np.int64))
    loop = _keyed_rounds if _keyed(spec) else _lean_rounds
    arrays = loop(g, source, spec, draws)
    fields = dict(zip(_ARRAY_FIELDS, arrays), source=int(source), protocol=spec, seed=int(seed))
    return ExecutionTrace(**fields, broadcast_count=int(np.count_nonzero(fields["forwarded"])))


def _decode(first: np.ndarray, shift: int) -> tuple:
    """`received`, level and parent (int32, -1 where not received) from each
    node's key level << shift | (parent + 1), shift <= 31.  The casts to int32
    wrap: the unreached key, _NO_KEY with its low `shift` bits clear, decodes
    to -1 in both fields, and the source's key 0 to parent -1."""
    # decoded straight into int32 (the cast is buffered, so no int64 copies)
    level = np.right_shift(first, shift, out=np.empty(first.size, np.int32), casting="unsafe")
    parent = np.bitwise_and(first, (1 << shift) - 1, out=np.empty(first.size, np.int32), casting="unsafe")
    parent -= 1
    return level >= 0, level, parent


def _lean_rounds(g: Graph, source: int, spec: ProtocolSpec, draws: np.ndarray) -> tuple:
    n = g.n
    stride = 1 << n.bit_length()
    k = spec.k
    boosts = None
    if isinstance(spec, Gossip2):
        lucky = draws < spec.p1
        boosts = g.degrees < spec.n_thresh  # senders whose copies carry the boost
    else:
        lucky = draws < spec.p
    # first[v] = receive_round * stride + parent + 1 of v's first copy:
    # receivers of earlier rounds, each sender included, hold smaller keys
    first = np.full(n, _NO_KEY & -stride, dtype=np.int64)
    first[source] = 0
    frontier = np.array([source], dtype=np.intp)
    t = 0
    while True:
        senders = frontier if t < k else frontier[lucky[frontier]]
        if not senders.size:
            break
        targets, snd = gather_neighbors(g, senders)
        t += 1
        key = snd + (t * stride + 1)
        np.minimum.at(first, targets, key)
        seen = first[targets]
        # (target, sender) pairs are unique in a round: one entry per new receiver wins
        frontier = targets[seen == key]
        if boosts is not None:
            # a boosted copy to a new receiver switches its draw to p2
            hot = targets[(seen >= t * stride) & boosts[snd]]
            lucky[hot] = draws[hot] < spec.p2
    received, receive_round, parent = _decode(first, n.bit_length())
    forwarded = received & (lucky | (receive_round < k))
    # hop is the receive round: one array serves both, and ships once
    return received, receive_round, receive_round, parent, forwarded, np.zeros(n, bool), np.zeros(n, np.int32)


def _keyed_rounds(g: Graph, source: int, spec: Gossip3, draws: np.ndarray) -> tuple:
    n = g.n
    stride = 1 << n.bit_length()
    k = spec.k
    coin = draws < spec.p
    # first[v] = hop * stride + parent + 1 of v's first copy while it arrives,
    # stored inverted (~key, negative) once v has received, so no later copy
    # beats it.  out_key[v] is the key v's broadcast gives its receivers,
    # (hop + 1) * stride + v + 1
    first = np.full(n, _NO_KEY & -stride, dtype=np.int64)
    first[source] = ~0
    out_key = np.empty(n, dtype=np.int64)
    out_key[source] = stride + source + 1
    receive_round = np.full(n, -1, dtype=np.int32)
    receive_round[source] = 0
    timeout_forward = np.zeros(n, dtype=bool)
    # L each node sends (its first copy's L, plus one after a timeout), and
    # the running maximum of L heard; both stay 0 until the first timeout
    L_out = np.zeros(n, dtype=np.int32)
    L_heard = None
    # copies heard, the first one included (the source's start is its own);
    # int64 + intp index: ufunc.at fast path
    copies = np.zeros(n, dtype=np.int64)
    copies[source] = 1
    checks: dict[int, np.ndarray] = {}  # check round -> the nodes that declined
    fresh = np.array([source], dtype=np.intp)  # first received in round t
    late = fresh[:0]  # timeout forwards due to send in round t
    t = 0
    while True:
        senders = late
        if fresh.size:
            if t >= k:  # hop < k exactly when the receive round t < k
                go = coin[fresh]
                declined = fresh[~go]
                if declined.size:
                    checks[t + spec.timeout_rounds] = declined
                fresh = fresh[go]
            senders = np.concatenate((fresh, late)) if late.size else fresh
        # copies now holds every delivery through round t; a timeout is due
        # with fewer than m copies beyond the first
        cand = checks.pop(t, None)
        late = fresh[:0] if cand is None else cand[copies[cand] <= spec.m]
        if late.size:
            timeout_forward[late] = True
            L_out[late] += 1  # a timeout forward carries its L plus one
            if L_heard is None:
                L_heard = np.zeros(n, dtype=np.int32)
        t += 1
        if senders.size:
            targets, snd = gather_neighbors(g, senders)
            np.add.at(copies, targets, 1)
            key = out_key[snd]
            np.minimum.at(first, targets, key)
            # (target, sender) pairs are unique in a round: one entry per new receiver wins
            win = first[targets] == key
            fresh = targets[win]
            kw = key[win]
            first[fresh] = ~kw
            out_key[fresh] = (kw & -stride) + (stride + 1) + fresh
            receive_round[fresh] = t
            if L_heard is not None:
                np.maximum.at(L_heard, targets, L_out[snd])
                L_out[fresh] = L_heard[fresh]
        elif late.size or checks:
            fresh = fresh[:0]
        else:
            break
    np.invert(first, out=first, where=first < 0)
    received, hop, parent = _decode(first, n.bit_length())
    forwarded = received & (coin | (receive_round < k) | timeout_forward)
    return received, receive_round, hop, parent, forwarded, timeout_forward, L_out - timeout_forward


_POOL_STATE: dict = {}
SLOT_BYTES = 4 << 20  # of run records in one ring slot, which holds one record at least


def _keyed(spec: ProtocolSpec) -> bool:
    """Only Gossip3 with m > 0 can time out, so only its traces can have a hop
    other than the receive round, timeout forwards or a non-zero L."""
    return isinstance(spec, Gossip3) and spec.m > 0


def _record_layout(n: int, spec: ProtocolSpec) -> list:
    """(field, dtype, start, end) in bytes of each array of one run's ring
    record: receive_round, parent and forwarded (bits), and for a keyed spec
    also hop, timeout_forward (bits) and L_at_receipt; the last end is the
    record's size, 8n + ceil(n / 8) bytes lean and 16n + 2 * ceil(n / 8) keyed."""
    bits = (n + 7) // 8
    arrays = [("receive_round", np.int32, 4 * n), ("parent", np.int32, 4 * n), ("forwarded", np.uint8, bits)]
    if _keyed(spec):
        arrays += [("hop", np.int32, 4 * n), ("timeout_forward", np.uint8, bits), ("L_at_receipt", np.int32, 4 * n)]
    layout, end = [], 0
    for name, dtype, size in arrays:
        layout.append((name, dtype, end, end + size))
        end += size
    return layout


def _pool_init(g: Graph, source: int, spec: ProtocolSpec, ring: mmap.mmap) -> None:
    _POOL_STATE["args"] = (g, source, spec, ring, _record_layout(g.n, spec))


def _pool_run(at: int, seeds: list) -> None:
    """Write each seed's run into the ring's records from byte `at` on."""
    g, source, spec, ring, layout = _POOL_STATE["args"]
    size = layout[-1][-1]
    for base, seed in zip(range(at, at + len(seeds) * size, size), seeds):
        tr = run_execution(g, source, spec, seed)
        for name, dtype, start, end in layout:
            a = getattr(tr, name)
            ring[base + start:base + end] = np.packbits(a) if dtype is np.uint8 else a


def _read_records(ring: mmap.mmap, layout: list, at: int, seeds: list, source: int, spec: ProtocolSpec) -> list:
    """The traces in the ring's records from byte `at` on, rebuilt from copies;
    a lean trace's hop is its receive_round array, and its timeout fields are
    zero arrays that the chunk's traces share read-only."""
    size, n = layout[-1][-1], layout[0][-1] // 4
    no_flags, no_L = np.zeros(n, bool), np.zeros(n, np.int32)
    traces = []
    for base, seed in zip(range(at, at + len(seeds) * size, size), seeds):
        fields = {"timeout_forward": no_flags, "L_at_receipt": no_L}
        for name, dtype, start, end in layout:
            a = np.frombuffer(ring[base + start:base + end], dtype)
            fields[name] = np.unpackbits(a, count=n).view(bool) if dtype is np.uint8 else a
        fields.setdefault("hop", fields["receive_round"])
        traces.append(ExecutionTrace(source=source, protocol=spec, seed=seed, received=fields["receive_round"] >= 0,
                                     broadcast_count=int(np.count_nonzero(fields["forwarded"])), **fields))
    return traces


def iter_batch(
    g: Graph,
    source: int,
    spec: ProtocolSpec,
    runs: int,
    base_seed: int,
    workers: int = 1,
) -> Iterator[ExecutionTrace]:
    """Yield traces for runs 0..runs-1; run i uses seed child(base_seed, i).

    Output is identical for any worker count; with workers > 1 a pool of
    min(workers, runs) processes executes the runs in chunks of
    max(1, runs // (workers * 8)) runs, cut to fit SLOT_BYTES (one run at least,
    each 8n + ceil(n / 8) bytes, or 16n + 2 * ceil(n / 8) under Gossip3 with
    m > 0), yielded in run order.  A worker writes each run's ring record into a
    chunk slot (whole pages) of a shared ring and returns nothing; chunk j's slot
    is released once copied out, before chunk j + depth = 2 * workers reuses it.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    seeds = [child_seed(base_seed, i) for i in range(runs)]
    workers = min(workers, runs)
    if workers <= 1:
        yield from (run_execution(g, source, spec, s) for s in seeds)
        return
    layout = _record_layout(g.n, spec)
    chunk = max(1, min(runs // (workers * 8), SLOT_BYTES // layout[-1][-1]))
    firsts = range(0, runs, chunk)
    depth = min(2 * workers, len(firsts))  # chunks in flight, one ring slot each
    slot = -(-chunk * layout[-1][-1] // mmap.PAGESIZE) * mmap.PAGESIZE
    ctx = multiprocessing.get_context("fork")
    ring = mmap.mmap(-1, depth * slot)
    try:
        with ctx.Pool(workers, initializer=_pool_init, initargs=(g, source, spec, ring)) as pool:

            def submit(j: int):
                return pool.apply_async(_pool_run, (j % depth * slot, seeds[firsts[j]:firsts[j] + chunk]))

            pending = deque(submit(j) for j in range(depth))
            for j, first in enumerate(firsts):
                at = j % depth * slot
                pending.popleft().get()  # waits for the chunk; re-raises a worker's error
                traces = _read_records(ring, layout, at, seeds[first:first + chunk], source, spec)
                if hasattr(mmap, "MADV_REMOVE"):  # frees the slot's shared pages in every process
                    ring.madvise(mmap.MADV_REMOVE, at, slot)
                if j + depth < len(firsts):
                    pending.append(submit(j + depth))
                yield from traces
    finally:
        # the pool's exit has joined its workers, so none writes to the ring any more
        ring.close()
