"""Span tracer for one traced iteration of a workload.

The tracer replaces gossipsim's layer functions where their callers bind
them (`experiments.build_topology`, `engine.gather_neighbors`, the metric
accumulators' methods, ...) with wrappers that time each call, and puts the
originals back on `restore()`.  Nothing under `src/` is modified.

A layer's self time is its spans' durations minus the parts covered by
nested spans, so the self times of all layers called from an entry point
are disjoint parts of that entry point's wall time; the remainder is
`experiments.self_s` (CSV writing, hashing, the manifest).

Engine counts are computed from every trace the engine hands back (batch
yields and route-query attempts): broadcasts, deliveries (sum of the
forwarders' degrees), new receptions (receivers other than the source) and
rounds (distinct send rounds, which is the number of gather calls the
engine makes).  The tracer's own bookkeeping is timed as layer `trace`.

With a process pool (fork start method) the run wrappers fire in the pool's
children.  Each child writes its per-run timings into an anonymous shared
mapping created before the fork; the parent merges them once the batch ends
as `remote` times, which overlap the parent's wait in `iter_batch` and are
therefore kept out of the parent's wall decomposition.
"""

from __future__ import annotations

import mmap
import os
from collections import defaultdict
from multiprocessing.reduction import ForkingPickler
from time import perf_counter

import numpy as np

ACCUMULATORS = {
    "ProfileAccumulator": ("profile", ("result",)),
    "CoverageAccumulator": ("coverage", ("summary", "theta")),
    "OverheadAccumulator": ("overhead", ("result",)),
    "ZoneCoverageAccumulator": ("zone_coverage", ("result",)),
    "RouteLengthAccumulator": ("route_length", ("mean_ratio",)),
}

# per-run columns written by pool children: run, gather, gather calls, rng
_REMOTE_COLS = 4


class Tracer:
    def __init__(self, gs) -> None:
        self.gs = gs
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.remote_s: dict[str, float] = defaultdict(float)
        self.remote_gather_calls = 0
        self.run_s: list[float] = []
        self.query_s: list[float] = []
        self.counts = dict(runs=0, rounds=0, broadcasts=0, deliveries=0, new_receptions=0, pool_bytes=0)
        self._stack: list[float] = []
        self._saved: list[tuple[object, str, object]] = []
        self._pid = os.getpid()
        self._remote = None  # (slots, seed -> row) while a pooled batch runs

    # -- spans -------------------------------------------------------------

    def span(self, layer: str, fn, samples: list | None = None):
        stack = self._stack

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                self.self_s[layer] += dur - stack.pop()
                self.calls[layer] += 1
                if stack:
                    stack[-1] += dur
                if samples is not None:
                    samples.append(dur)

        return wrapper

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, name: str, replacement) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def install(self) -> "Tracer":
        gs = self.gs
        E, R, G, M = gs.experiments, gs.routing, gs.engine, gs.metrics
        self._patch(E, "build_topology", self.span("topology.build", E.build_topology))
        for owner, name in ((E, "hop_distances"), (R, "hop_distances"), (R, "ball_distances")):
            self._patch(owner, name, self.span("topology.bfs", getattr(owner, name)))
        self._patch(G, "gather_neighbors", self.span("topology.gather", G.gather_neighbors))
        self._patch(G, "unit_uniforms", self.span("rng.draw", G.unit_uniforms))
        run = self._run_wrapper(self.span("engine.run", G.run_execution, self.run_s))
        self._patch(G, "run_execution", run)
        self._patch(R, "run_execution", self._counted(run))
        self._patch(E, "iter_batch", self._batch_wrapper(E.iter_batch))
        self._patch(E, "discover_route", self.span("routing.query", E.discover_route, self.query_s))
        self._patch(E, "query_for", self.span("routing.query", E.query_for))
        for cls_name, (kind, results) in ACCUMULATORS.items():
            cls = getattr(M, cls_name)
            self._patch(cls, "add", self.span(f"metrics.add.{kind}", cls.__dict__["add"]))
            for name in results:
                self._patch(cls, name, self.span("metrics.result", cls.__dict__[name]))
        return self

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    # -- engine ------------------------------------------------------------

    def _run_wrapper(self, timed):
        def run_execution(g, source, spec, seed):
            if self._remote is None or os.getpid() == self._pid:
                return timed(g, source, spec, seed)
            # in a pool child: report this run's timings through shared memory
            gather0 = self.self_s["topology.gather"]
            calls0 = self.calls["topology.gather"]
            rng0 = self.self_s["rng.draw"]
            t0 = perf_counter()
            trace = timed(g, source, spec, seed)
            dur = perf_counter() - t0
            slots, row_of = self._remote
            slots[row_of[seed]] = (
                dur,
                self.self_s["topology.gather"] - gather0,
                self.calls["topology.gather"] - calls0,
                self.self_s["rng.draw"] - rng0,
            )
            return trace

        return run_execution

    def _counted(self, run):
        count = self.span("trace", self._count)

        def run_execution(g, source, spec, seed):
            trace = run(g, source, spec, seed)
            count(g, trace, False)
            return trace

        return run_execution

    def _batch_wrapper(self, iter_batch):
        count = self.span("trace", self._count)
        child_seed = self.gs.rng.child_seed

        def batch(g, source, spec, runs, base_seed, workers=1):
            pooled = workers > 1
            if pooled:
                mem = mmap.mmap(-1, runs * _REMOTE_COLS * 8)
                slots = np.frombuffer(mem, dtype=np.float64).reshape(runs, _REMOTE_COLS)
                self._remote = (slots, {child_seed(base_seed, i): i for i in range(runs)})
            gen = iter_batch(g, source, spec, runs, base_seed, workers=workers)
            step = self.span("engine.batch", lambda: next(gen, None))
            try:
                while (trace := step()) is not None:
                    count(g, trace, pooled)
                    yield trace
            finally:
                if pooled:
                    self._merge_remote(slots.copy())
                    self._remote = None
                    del slots
                    mem.close()

        return batch

    def _merge_remote(self, rows: np.ndarray) -> None:
        run, gather, gather_calls, rng = rows.T
        self.run_s.extend(run.tolist())
        self.remote_s["engine.run"] += float((run - gather - rng).sum())
        self.remote_s["topology.gather"] += float(gather.sum())
        self.remote_s["rng.draw"] += float(rng.sum())
        self.remote_gather_calls += int(gather_calls.sum())

    def _count(self, g, trace, pooled: bool) -> None:
        c = self.counts
        fwd = trace.forwarded
        send_round = trace.receive_round[fwd].astype(np.int64)
        timeout_rounds = getattr(trace.protocol, "timeout_rounds", 0)
        send_round[trace.timeout_forward[fwd]] += timeout_rounds + 1
        c["runs"] += 1
        c["rounds"] += int(np.count_nonzero(np.bincount(send_round)))
        c["broadcasts"] += int(trace.broadcast_count)
        c["deliveries"] += int(g.degrees[fwd].sum())
        c["new_receptions"] += int(trace.received.sum()) - 1
        if pooled:
            c["pool_bytes"] += len(ForkingPickler.dumps(trace))

    # -- results -----------------------------------------------------------

    def local_layer_s(self) -> float:
        """Sum of the self times of every layer measured in this process."""
        return sum(self.self_s.values())

    def gather_calls(self) -> int:
        return self.calls["topology.gather"] + self.remote_gather_calls

    def layer(self, name: str) -> float:
        return self.self_s[name] + self.remote_s[name]
