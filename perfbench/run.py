"""gossipsim benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
`src/` directory.  Workloads are defined in workloads.py and described in
README.md.  Each iteration calls the public entry points the CLI calls
(`experiments.run_experiment` / `sweep_probability`) on the workload's
configs with `base_seed` set to the seed, then checks every artifact.

Before timing, one iteration at the pinned seed checks the artifacts against
pins.json (and warms caches).  `--trace 0` then reports the end-to-end
metrics as medians over the iterations that fit in `--seconds`, with wall
times relative to a reference kernel run around each iteration; `--trace 1`
alternates untraced and traced iterations and reports the per-layer metrics
of the median traced iteration.  The last line of stdout is one JSON object.
When the program or its configs cannot be loaded it exits nonzero and prints
no result.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from tracer import ACCUMULATORS, Tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Workload  # noqa: E402

MIN_ITERATIONS = 3
MIN_TRACED_PAIRS = 2
# Timed iterations cycle through this many seeds derived from --seed, so a
# run's median averages over several inputs and every seed repeats, which
# checks that a repeat writes the same bytes.
SEED_CYCLE = 4


def iteration_seed(seed: int, i: int) -> int:
    return seed + (i % SEED_CYCLE) * (1 << 32)


@dataclass
class Iteration:
    wall_s: float = 0.0
    executions: int = 0
    artifact_bytes: int = 0
    digests: dict = field(default_factory=dict)  # (config name, base_seed) -> manifest hash


@dataclass
class Checker:
    """Counts artifacts (operations) and failures against expected digests."""

    expected: dict  # (config name, base_seed) -> {artifact name: sha256}
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def fail(self, what: str, count: int = 1) -> None:
        self.attempted += count
        self.failed += count
        self.problems.append(what)

    def check(self, cfg, out_dir: Path) -> str | None:
        """Check one config's artifacts; returns its manifest hash."""
        expected = self.expected.setdefault((cfg.name, cfg.base_seed), {})
        try:
            with open(out_dir / "manifest.json") as f:
                manifest = json.load(f)
            recorded, combined = manifest["artifacts"], manifest["hash"]
        except (OSError, ValueError, KeyError) as exc:
            self.fail(f"{cfg.name}: manifest unreadable ({exc})", max(1, len(expected)))
            return None
        for name in sorted(set(expected) | set(recorded)):
            self.attempted += 1
            path = out_dir / name
            if not path.is_file():
                self.failed += 1
                self.problems.append(f"{cfg.name}/{name}: missing")
                continue
            digest = _sha256(path)
            want = expected.setdefault(name, digest)
            if digest != want or recorded.get(name) != digest:
                self.failed += 1
                self.problems.append(f"{cfg.name}/{name}: sha256 {digest} != {want}")
        return combined


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_program():
    """Import gossipsim from this checkout's src/, or exit nonzero."""
    try:
        import gossipsim
        from gossipsim import engine, experiments, metrics, rng, routing, topology
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import gossipsim from {ROOT / 'src'}: {exc}")
    if Path(gossipsim.__file__).resolve().parent.parent != ROOT / "src":
        sys.exit(f"perfbench: gossipsim was imported from {gossipsim.__file__}, not from {ROOT / 'src'}")
    return argparse.Namespace(
        engine=engine, experiments=experiments, metrics=metrics, rng=rng, routing=routing, topology=topology
    )


def load_configs(gs, wl: Workload, seed: int) -> list:
    configs = []
    for entry in wl.entries:
        path = ROOT / entry.config
        if not path.is_file():
            sys.exit(f"perfbench: missing config {path}")
        cfg = gs.experiments.parse_config(str(path))
        configs.append(replace(cfg, base_seed=seed, **dict(entry.overrides)))
    return configs


def runs_in_batch(cfg) -> int:
    """Engine executions of a config's batch (route queries are counted from their CSV)."""
    if cfg.p_sweep is not None:
        return cfg.runs * len(cfg.p_sweep)
    return cfg.runs if cfg.metrics - {"route_discovery"} else 0


def route_attempts(out_dir: Path) -> int:
    path = out_dir / "route_discovery.csv"
    if not path.is_file():
        return 0
    with open(path, newline="") as f:
        return sum(int(row["attempts"]) for row in csv.DictReader(f))


def run_iteration(gs, wl: Workload, configs, work: Path, checker: Checker) -> Iteration:
    E = gs.experiments
    it = Iteration()
    shutil.rmtree(work, ignore_errors=True)
    for cfg in configs:
        out_dir = work / cfg.name
        runner = E.sweep_probability if cfg.p_sweep is not None else E.run_experiment
        t0 = perf_counter()
        try:
            runner(cfg, out_dir=str(out_dir), workers=wl.workers)
        except Exception as exc:  # a failed config fails all of its artifacts
            it.wall_s += perf_counter() - t0
            traceback.print_exc()
            expected = checker.expected.get((cfg.name, cfg.base_seed), {})
            checker.fail(f"{cfg.name}: {type(exc).__name__}: {exc}", max(1, len(expected)))
            continue
        it.wall_s += perf_counter() - t0
        it.digests[cfg.name, cfg.base_seed] = checker.check(cfg, out_dir)
        it.executions += runs_in_batch(cfg) + route_attempts(out_dir)
        it.artifact_bytes += sum(p.stat().st_size for p in out_dir.iterdir())
    return it


def time_setup(gs, wl: Workload, seed: int) -> float:
    """One set-up: config parse, build_topology, resolve_source, hop_distances."""
    E, T = gs.experiments, gs.topology
    total = 0.0
    for entry in wl.entries:
        t0 = perf_counter()
        cfg = E.parse_config(str(ROOT / entry.config))
        total += perf_counter() - t0
        cfg = replace(cfg, base_seed=seed, **dict(entry.overrides))
        t0 = perf_counter()
        g = T.build_topology(cfg.topology)
        total += perf_counter() - t0
        t0 = perf_counter()
        source = E.resolve_source(cfg, g)
        total += perf_counter() - t0
        t0 = perf_counter()
        T.hop_distances(g, source)
        total += perf_counter() - t0
    return total


def reference_s() -> float:
    """Wall time of a fixed kernel that shares no code with gossipsim.

    Like the engine, it mixes fancy indexing, `np.add.at` and `np.unique` on
    arrays of about 10^4 elements with an interpreted loop, so a change in
    the machine's speed slows it about as much as it slows a workload.
    """
    rng = np.random.default_rng(0)
    idx = rng.integers(0, 50_000, 20_000)
    acc = np.zeros(50_000, dtype=np.int64)
    t0 = perf_counter()
    for i in range(40):
        sel = idx[acc[idx] <= i]
        np.add.at(acc, sel, 1)
        acc[np.unique(sel)] += 1
        s = 0
        for j in range(1500):
            s += j ^ i
    return perf_counter() - t0


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def _percentile_ms(samples: list, q: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return 1000.0 * ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(tr, it: Iteration, run_s: list, query_s: list) -> tuple[dict, float]:
    """Per-layer metrics of one traced iteration, and its experiments self time."""
    c = tr.counts
    experiments_self = it.wall_s - tr.local_layer_s()
    metrics = {
        "topology.build_s": (tr.self_s["topology.build"], "s"),
        "topology.bfs_s": (tr.self_s["topology.bfs"], "s"),
        "topology.bfs_calls": (tr.calls["topology.bfs"], "count"),
        "topology.gather_s": (tr.layer("topology.gather"), "s"),
        "topology.gather_calls": (tr.gather_calls(), "count"),
        "rng.draw_s": (tr.layer("rng.draw"), "s"),
        "engine.self_s": (tr.layer("engine.run"), "s"),
        "engine.run_ms_p50": (_percentile_ms(run_s, 0.50), "ms"),
        "engine.run_ms_p99": (_percentile_ms(run_s, 0.99), "ms"),
        "engine.us_per_round": (1e6 * sum(tr.run_s) / c["rounds"] if c["rounds"] else 0.0, "us"),
        "engine.runs": (c["runs"], "count"),
        "engine.rounds": (tr.gather_calls(), "count"),
        "engine.broadcasts": (c["broadcasts"], "count"),
        "engine.deliveries": (c["deliveries"], "count"),
        "engine.useful_ratio": (c["new_receptions"] / c["deliveries"] if c["deliveries"] else 0.0, "ratio"),
        "engine.pool.wait_s": (tr.self_s["engine.batch"], "s"),
        "engine.pool.bytes": (c["pool_bytes"], "B"),
    }
    for kind, _ in ACCUMULATORS.values():
        metrics[f"metrics.add_s.{kind}"] = (tr.self_s[f"metrics.add.{kind}"], "s")
    metrics.update(
        {
            "metrics.result_s": (tr.self_s["metrics.result"], "s"),
            "routing.queries": (len(tr.query_s), "count"),
            "routing.query_ms_p50": (_percentile_ms(query_s, 0.50), "ms"),
            "routing.query_ms_p99": (_percentile_ms(query_s, 0.99), "ms"),
            "experiments.self_s": (experiments_self, "s"),
            "experiments.artifact_bytes": (it.artifact_bytes, "B"),
            "trace.self_s": (tr.self_s["trace"], "s"),
        }
    )
    return metrics, experiments_self


def median_index(values: list) -> int:
    order = sorted(range(len(values)), key=values.__getitem__)
    return order[(len(values) - 1) // 2]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    gs = load_program()
    wl = WORKLOADS[args.workload]
    pins_path = HERE / "pins.json"
    pins = json.loads(pins_path.read_text())["workloads"].get(args.workload) if pins_path.is_file() else None
    if pins is None:
        sys.exit(f"perfbench: no pinned digests for {args.workload} in {pins_path}")

    print("context " + json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workers": wl.workers,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }, sort_keys=True))

    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        return measure(gs, args, wl, pins, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(gs, args, wl: Workload, pins: dict, work: Path) -> int:
    checker = Checker({(name, DEFAULT_SEED): dict(p["artifacts"]) for name, p in pins.items()})
    # Pinned-seed check, which also warms caches before anything is timed.
    check = run_iteration(gs, wl, load_configs(gs, wl, DEFAULT_SEED), work / "pinned", checker)
    for (name, _), digest in check.digests.items():
        print(f"digest seed={DEFAULT_SEED} {name} {digest} pinned={pins[name]['hash']}")

    configs = [load_configs(gs, wl, iteration_seed(args.seed, j)) for j in range(SEED_CYCLE)]
    measure_mode = measure_layers if args.trace else measure_end_to_end
    metrics, measured, correct = measure_mode(gs, args, wl, configs, checker, work)

    digests = {}
    for it in measured:
        digests.update(it.digests)
    for (name, seed), digest in sorted(digests.items(), key=lambda kv: (kv[0][1], kv[0][0])):
        print(f"digest seed={seed} {name} {digest}")
    for problem in checker.problems:
        print(f"FAILED {problem}")
    attempted, failed = checker.attempted, checker.failed
    print(f"failed_frac {failed / attempted if attempted else 1.0!r} ({failed}/{attempted} artifacts)")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
    result = {
        "correct": bool(correct and failed == 0 and attempted > 0),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def measure_end_to_end(gs, args, wl: Workload, configs: list, checker: Checker, work: Path):
    """Timed set-ups and iterations over the window; returns (metrics, iterations, checks passed)."""
    # A set-up is timed before every iteration, so that both sample the
    # machine over the same window.  On a shared host the machine's speed
    # drifts by up to 2x over minutes, so each iteration is also bracketed
    # by two runs of the reference kernel and reported relative to them.
    setups, iterations, rounds, refs = [], [], [], [reference_s()]
    t0 = perf_counter()
    while len(iterations) < MIN_ITERATIONS or perf_counter() - t0 + statistics.median(rounds) <= args.seconds:
        start = perf_counter()
        setups.append(time_setup(gs, wl, args.seed))
        i = len(iterations)
        iterations.append(run_iteration(gs, wl, configs[i % SEED_CYCLE], work / "run", checker))
        refs.append(reference_s())
        rounds.append(perf_counter() - start)
    walls = [i.wall_s for i in iterations]
    rel = [it.wall_s / math.sqrt(a * b) for it, a, b in zip(iterations, refs, refs[1:])]
    print(f"iterations {len(walls)} wall_s " + " ".join(f"{w:.4f}" for w in walls))
    print(f"iterations {len(walls)} executions " + " ".join(str(i.executions) for i in iterations))
    print(f"setups {len(setups)} setup_s " + " ".join(f"{s:.4f}" for s in setups))
    print(f"references {len(refs)} reference_s " + " ".join(f"{r:.5f}" for r in refs))
    print(f"raw wall_s {statistics.median(walls)!r} s")
    print(f"raw runs_per_s {statistics.median(i.executions / i.wall_s for i in iterations)!r} 1/s")
    metrics = {
        "wall_ref": (statistics.median(rel), "ref"),
        "runs_per_ref": (statistics.median(it.executions / r for it, r in zip(iterations, rel)), "1/ref"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return metrics, iterations, True


def measure_layers(gs, args, wl: Workload, configs: list, checker: Checker, work: Path):
    """Untraced and traced iterations in turns; returns (metrics, untraced iterations, checks passed)."""
    untraced, traced, tracers = [], [], []
    run_s, query_s = [], []
    t0 = perf_counter()
    while len(traced) < MIN_TRACED_PAIRS or (
        perf_counter() - t0 + statistics.median(u.wall_s + t.wall_s for u, t in zip(untraced, traced))
        <= args.seconds
    ):
        untraced.append(run_iteration(gs, wl, configs[0], work / "run", checker))
        tr = Tracer(gs).install()
        try:
            traced.append(run_iteration(gs, wl, configs[0], work / "traced", checker))
        finally:
            tr.restore()
        tracers.append(tr)
        run_s += tr.run_s
        query_s += tr.query_s
    pick = median_index([t.wall_s for t in traced])
    tr, it = tracers[pick], traced[pick]
    metrics, experiments_self = layer_metrics(tr, it, run_s, query_s)
    overhead = statistics.median(t.wall_s for t in traced) / statistics.median(u.wall_s for u in untraced) - 1
    metrics["trace.overhead"] = (overhead, "ratio")
    counts = [(t.counts, t.gather_calls(), len(t.query_s)) for t in tracers]
    checks = {
        "counts_repeat": all(c == counts[0] for c in counts),
        "runs_match_executions": all(t.counts["runs"] == u.executions for t, u in zip(tracers, untraced)),
        "rounds_match_gather_calls": all(t.counts["rounds"] == t.gather_calls() for t in tracers),
        "traced_artifacts_match": all(t.digests == untraced[0].digests for t in traced),
        "experiments_self_nonnegative": experiments_self >= 0,
    }
    print(f"pairs {len(traced)} untraced_wall_s " + " ".join(f"{u.wall_s:.4f}" for u in untraced))
    print(f"pairs {len(traced)} traced_wall_s " + " ".join(f"{t.wall_s:.4f}" for t in traced))
    print(f"wall_decomposition traced_wall_s={it.wall_s:.6f} layers_s={tr.local_layer_s():.6f} "
          f"experiments.self_s={experiments_self:.6f}")
    if wl.workers > 1:
        print("pool_children_s " + " ".join(f"{k}={v:.6f}" for k, v in sorted(tr.remote_s.items())))
    print("engine_counts " + json.dumps(tr.counts, sort_keys=True))
    print(f"samples engine.run={len(run_s)} routing.query={len(query_s)}")
    print("checks " + " ".join(f"{k}={v}" for k, v in checks.items()))
    return metrics, untraced, all(checks.values())


if __name__ == "__main__":
    sys.exit(main())
