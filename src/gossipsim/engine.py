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
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .protocols import Gossip2, Gossip3, ProtocolSpec, validate_protocol
from .rng import child_seed, unit_uniforms
from .textio import write_rows
from .topology import Graph, gather_neighbors

_NO_KEY = np.iinfo(np.int64).max


@dataclass
class ExecutionTrace:
    """Per-node outcome of one simulated propagation."""

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

    @property
    def n(self) -> int:
        return self.received.size

    def sent_L(self) -> np.ndarray:
        """L carried by each forwarder's broadcast (timeout forwards add 1)."""
        return (self.L_at_receipt + self.timeout_forward.astype(np.int32))[self.forwarded]

    def same_outcome(self, other: "ExecutionTrace") -> bool:
        """Trace equivalence ignoring the protocol/seed labels."""
        return (
            self.source == other.source
            and self.broadcast_count == other.broadcast_count
            and np.array_equal(self.received, other.received)
            and np.array_equal(self.receive_round, other.receive_round)
            and np.array_equal(self.hop, other.hop)
            and np.array_equal(self.parent, other.parent)
            and np.array_equal(self.forwarded, other.forwarded)
            and np.array_equal(self.timeout_forward, other.timeout_forward)
            and np.array_equal(self.L_at_receipt, other.L_at_receipt)
        )

    def to_csv(self, path_or_file) -> None:
        """One row per node: node,received,round,hop,parent,forwarded,timeout_forward,L."""
        write_rows(
            path_or_file,
            "node,received,round,hop,parent,forwarded,timeout_forward,L",
            zip(range(self.n), self.received, self.receive_round, self.hop, self.parent,
                self.forwarded, self.timeout_forward, self.L_at_receipt),
        )


def run_execution(g: Graph, source: int, spec: ProtocolSpec, seed: int) -> ExecutionTrace:
    """Simulate one propagation of a route request from `source`."""
    validate_protocol(spec)
    if not (0 <= source < g.n):
        raise ValueError(f"source {source} outside graph of size {g.n}")

    n = g.n
    stride = n + 1
    draws = unit_uniforms(seed, np.arange(n, dtype=np.int64))

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
            targets, snd = gather_neighbors(g, senders)
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
    forwarded = send_key >= 0
    hop, parent = np.divmod(first_key, stride)
    hop = np.where(received, hop, -1).astype(np.int32)
    parent = np.where(received, parent, -1).astype(np.int32)
    parent[source] = -1
    for arr in (received, receive_round, hop, parent, forwarded, timeout_forward, L_first):
        arr.flags.writeable = False
    return ExecutionTrace(
        source=int(source),
        protocol=spec,
        seed=int(seed),
        received=received,
        receive_round=receive_round,
        hop=hop,
        parent=parent,
        forwarded=forwarded,
        timeout_forward=timeout_forward,
        L_at_receipt=L_first,
        broadcast_count=int(forwarded.sum()),
    )


_POOL_STATE: dict = {}


def _pool_init(g: Graph, source: int, spec: ProtocolSpec) -> None:
    _POOL_STATE["args"] = (g, source, spec)


def _pool_run(seed: int) -> ExecutionTrace:
    g, source, spec = _POOL_STATE["args"]
    return run_execution(g, source, spec, seed)


def iter_batch(
    g: Graph,
    source: int,
    spec: ProtocolSpec,
    runs: int,
    base_seed: int,
    workers: int = 1,
) -> Iterator[ExecutionTrace]:
    """Yield traces for runs 0..runs-1; run i uses seed child(base_seed, i).

    Output is identical for any worker count; with workers > 1 the runs are
    executed by a process pool but still yielded in run order.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    seeds = [child_seed(base_seed, i) for i in range(runs)]
    if workers <= 1:
        for s in seeds:
            yield run_execution(g, source, spec, s)
        return
    ctx = multiprocessing.get_context("fork")
    chunk = max(1, runs // (workers * 8))
    with ctx.Pool(workers, initializer=_pool_init, initargs=(g, source, spec)) as pool:
        yield from pool.imap(_pool_run, seeds, chunksize=chunk)

