"""Executable specification of the protocol family: the reference the engine must match.

A plain-Python, per-node event loop written from the README's protocol
text.  It reads only public API (`Graph.neighbors`, `unit_uniforms`, the
protocol specs and `ExecutionTrace`), so it shares no code with the engine.
The rules:

- a broadcast sent in round t arrives in round t + 1;
- among a node's first-round copies it takes the minimum hop, then the
  lowest sender id, the OR of the gossip2 boosts (the sender has fewer than
  n_thresh neighbours) and the maximum L;
- a node decides once, at first receipt: it sends if its hop is below k or
  its draw is below its threshold, which is p, or for gossip2 p2 if boosted
  and p1 otherwise;
- a gossip3 node that declined is checked at the end of round t0 + timeout,
  where t0 is its receive round.  Its copies beyond its first count, and the
  source's start counts as the source's first copy.  If fewer than m copies
  arrived, it sends in the next round with L + 1.
"""

import numpy as np

from gossipsim import ExecutionTrace, Gossip2, Gossip3
from gossipsim.rng import unit_uniforms

FIELDS = ("received", "receive_round", "hop", "parent", "forwarded", "timeout_forward", "L_at_receipt")


def spec_trace(g, source: int, spec, draws) -> dict:
    """Every trace field, and `broadcast_count`, of one propagation from
    `source` in which node v draws draws[v]."""
    n = g.n
    draws = list(draws)
    neighbors = [g.neighbors(v).tolist() for v in range(n)]
    gossip2 = isinstance(spec, Gossip2)
    receive_round, hop, parent = [-1] * n, [-1] * n, [-1] * n
    L, copies, timeout_forward = [0] * n, [0] * n, [False] * n
    sent_L = {}  # forwarder -> the L its broadcast carries
    sends, checks = {}, {}  # round -> the nodes that broadcast in it / are checked at its end
    # copies arriving in round t, by receiver: (hop, sender, boost, L); the
    # source's start is a copy with hop 0 from no sender
    inbox = {source: [(0, -1, False, 0)]}
    t = 0
    while True:
        for v, got in inbox.items():
            copies[v] += len(got)
            if receive_round[v] >= 0:
                continue
            receive_round[v] = t
            hop[v], parent[v] = min(got)[:2]
            L[v] = max(c[3] for c in got)
            boosted = any(c[2] for c in got)
            threshold = (spec.p2 if boosted else spec.p1) if gossip2 else spec.p
            if hop[v] < spec.k or draws[v] < threshold:
                sent_L[v] = L[v]
                sends.setdefault(t, []).append(v)
            elif isinstance(spec, Gossip3):
                checks.setdefault(t + spec.timeout_rounds, []).append(v)
        for v in checks.pop(t, []):
            if copies[v] - 1 < spec.m:
                timeout_forward[v] = True
                sent_L[v] = L[v] + 1
                sends.setdefault(t + 1, []).append(v)
        if not sends and not checks:
            break
        inbox = {}
        for u in sends.pop(t, []):
            copy = (hop[u] + 1, u, gossip2 and len(neighbors[u]) < spec.n_thresh, sent_L[u])
            for v in neighbors[u]:
                inbox.setdefault(v, []).append(copy)
        t += 1
    return {
        "received": np.array([r >= 0 for r in receive_round], dtype=bool),
        "receive_round": np.array(receive_round, dtype=np.int32),
        "hop": np.array(hop, dtype=np.int32),
        "parent": np.array(parent, dtype=np.int32),
        "forwarded": np.array([v in sent_L for v in range(n)], dtype=bool),
        "timeout_forward": np.array(timeout_forward, dtype=bool),
        "L_at_receipt": np.array(L, dtype=np.int32),
        "broadcast_count": len(sent_L),
    }


def spec_execution(g, source: int, spec, seed: int) -> ExecutionTrace:
    """The spec's trace of `run_execution(g, source, spec, seed)`: node v draws
    unit_uniforms(seed, v)."""
    draws = unit_uniforms(seed, np.arange(g.n, dtype=np.int64))
    return ExecutionTrace(source=source, protocol=spec, seed=seed, **spec_trace(g, source, spec, draws))


def assert_matches_spec(trace: ExecutionTrace, g) -> None:
    """`trace` equals the spec's run with its source, protocol and seed: every
    array with its dtype, and the broadcast count."""
    ref = spec_execution(g, trace.source, trace.protocol, trace.seed)
    for name in FIELDS:
        got, want = getattr(trace, name), getattr(ref, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), (name, got, want)
    assert trace.broadcast_count == ref.broadcast_count, (trace.broadcast_count, ref.broadcast_count)
