#!/usr/bin/env python3
"""Before/after benchmark record: parent and change checkouts, run in turns.

    python3 scripts/bench.py --parent DIR --change DIR --rounds N --out BENCH_<n>.json

For each round and each workload in the change's BENCHMARK.json, runs
`perfbench/run.py --trace 0` once in each checkout, alternating which side
goes first, and reads the JSON result on its last line.  The record holds,
per workload and side, every run's end-to-end metrics with their median and
quartiles, how many runs reported `correct`, and per metric the number of
pairs the change won (ties count for neither side), and whether the move is
`resolved`: the two sides' medians differ by more than the parent's quartile
spread (q3 - q1), and the change moved that way in at least RESOLVED_SHARE
(9/10) of the pairs, ties counting for neither side.  Round i runs both
sides with seed 1 + i and BENCHMARK.json's run_seconds, so each pair differs
only in the checkout.  A run that exits nonzero or prints no result is kept
in the record with its return code and the tail of its stderr, listed under
`failed_runs`, and left out of the metrics and of the pairs; the script then
writes the record and exits 1.

After the pairs, each side runs every workload TRACED_RUNS (7) more times
traced (`--trace 1 --seconds 5`, seeds 1 .. TRACED_RUNS, alternating which
side goes first); the record keeps, under `traced`, every run's checks and
exact engine counts, the median and quartiles of each layer metric named in
TRACED_METRICS, the seed-matched pairs in which the change read lower
(`traced_change_wins`; every layer metric is better lower), whether each of
those moves is resolved by the same rule as the end-to-end metrics, and
whether both sides' engine counts are equal seed by seed, leaving out the
pickled bytes (`pool_bytes`), which
`engine.pool.bytes` reports (a traced run that fails is kept like a failed
untimed run).

Last, each side runs the Tier-1 suite once, parent first, with
`--durations=15` (TIER1_COMMAND, with `src` prepended to PYTHONPATH).  The
record keeps, under `tier1`, each side's wall time, pytest's return code, its
outcome counts, the ids of the tests that failed, and the 15 slowest test
phases.  Failing tests do not fail the script; a suite that does not finish
(return code above 1) does.

The record names each side's commit under `checkouts`: `git rev-parse HEAD`
and whether `git status --porcelain` lists anything, or null when the
directory is not the top of a git checkout.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

SEED = 1  # seed of round 0; round i uses SEED + i
TRACED_SECONDS = 5
# per side and workload; a layer delta is a median, not one sample, and with
# 3 runs the inclusive q3 - q1 is half the range, too narrow to rule out drift
TRACED_RUNS = 7
RESOLVED_SHARE = 0.9  # of the seed-matched pairs that must move the medians' way
TRACED_METRICS = ("engine.us_per_round", "engine.self_s", "topology.gather_s", "topology.build_s",
                  "topology.bfs_s", "rng.draw_s", "metrics.add_s.coverage", "metrics.add_s.profile",
                  "metrics.add_s.zone_coverage", "engine.pool.bytes", "engine.pool.wait_s")
TIER1_COMMAND = ("-m", "pytest", "-q", "-rf", "--continue-on-collection-errors", "--durations=15")


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """The run's JSON result, or {"returncode", "stderr"} when it has none.

    A traced run's result also holds its `checks` and `engine_counts` lines.
    """
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or "metrics" not in result:
        return {"returncode": proc.returncode, "stderr": proc.stderr[-2000:]}
    for line in lines:
        tag, _, rest = line.partition(" ")
        if tag == "checks":
            result["checks"] = {k: v == "True" for k, v in (item.split("=", 1) for item in rest.split())}
        elif tag == "engine_counts":
            result["engine_counts"] = json.loads(rest)
    return result


def run_tier1(checkout: Path) -> dict:
    """One Tier-1 run in `checkout`: wall time, outcome counts, failing ids, slowest phases."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, ("src", os.environ.get("PYTHONPATH")))))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1_COMMAND], cwd=checkout, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = proc.stdout.splitlines()
    summary = next((ln for ln in reversed(lines) if re.search(r"\d+ \w+.* in [\d.]+s", ln)), "")
    durations = (re.match(r"([\d.]+)s (setup|call|teardown) +(.+)", ln) for ln in lines)
    return {
        "wall_s": wall,
        "returncode": proc.returncode,
        "counts": {word: int(count) for count, word in re.findall(r"(\d+) (\w+)", summary.split(" in ")[0])},
        "failed": [ln.split(" ", 1)[1].split(" - ")[0] for ln in lines if ln.startswith(("FAILED ", "ERROR "))],
        "slowest": [{"s": float(m[1]), "phase": m[2], "test": m[3]} for m in durations if m],
    }


def checkout_state(checkout: Path):
    """{"commit", "dirty"} of the git checkout at `checkout`, else None."""
    git = ["git", "-C", str(checkout)]
    try:
        top, head = subprocess.run(git + ["rev-parse", "--show-toplevel", "HEAD"], capture_output=True,
                                   text=True, check=True).stdout.splitlines()
        status = subprocess.run(git + ["status", "--porcelain"], capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return None
    if Path(top).resolve() != checkout.resolve():
        return None  # a directory inside some other checkout
    return {"commit": head, "dirty": bool(status.strip())}


def spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def resolved(parent: dict, change: dict, pairs: list) -> bool:
    """Whether the medians of two spreads differ by more than the parent's
    q3 - q1 and the change moved that way in at least RESOLVED_SHARE of the
    seed-matched (parent value, change value) `pairs`, ties counting for neither."""
    gap = change["median"] - parent["median"]
    if not pairs or abs(gap) <= parent["q3"] - parent["q1"]:
        return False
    return sum((c - p) * gap > 0 for p, c in pairs) >= RESOLVED_SHARE * len(pairs)


def metric_pairs(parent_runs: list, change_runs: list, metric: str) -> list:
    """(parent value, change value) of `metric` for each round both sides finished."""
    return [(p["metrics"][metric]["value"], c["metrics"][metric]["value"])
            for p, c in zip(parent_runs, change_runs)
            if metric in p.get("metrics", {}) and metric in c.get("metrics", {})]


def traced_summary(results: list) -> dict:
    """What the record keeps of one side's traced runs (seed order): each run's
    checks and engine counts (a failed run as run_once returned it), and the
    spread of each TRACED_METRICS entry over the runs that finished."""
    done = [r for r in results if "metrics" in r]
    runs = []
    for j, r in enumerate(results):
        kept = {k: r.get(k) for k in ("correct", "checks", "engine_counts")} if "metrics" in r else r
        runs.append({"seed": SEED + j, **kept})
    summary = {"correct": sum(r["correct"] for r in done), "runs": runs}
    for m in TRACED_METRICS:
        values = [r["metrics"][m]["value"] for r in done if m in r["metrics"]]
        if values:
            summary[m] = spread(values)
    return summary


def simulation_counts(result: dict):
    """A traced run's engine counts without `pool_bytes` (None if it has none):
    the pickled bytes measure transport, not the simulation, and the traced
    metric engine.pool.bytes reports them."""
    counts = result.get("engine_counts")
    return None if counts is None else {k: v for k, v in counts.items() if k != "pool_bytes"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, type=Path, help="checkout of the change")
    parser.add_argument("--rounds", required=True, type=int, help="pairs of runs per workload")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")

    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
    sides = {"parent": args.parent, "change": args.change}
    results = {w["name"]: {side: [] for side in sides} for w in bench["workloads"]}
    for i in range(args.rounds):
        order = list(sides) if i % 2 == 0 else list(sides)[::-1]
        for workload, runs in results.items():
            for side in order:
                runs[side].append(run_once(sides[side], workload, SEED + i, seconds))
                value = runs[side][-1].get("metrics", {}).get("wall_ref", {}).get("value")
                print(f"round {i} {workload} {side} wall_ref={value}", file=sys.stderr, flush=True)

    record = {
        "command": "perfbench/run.py --trace 0",
        "rounds": args.rounds,
        "seconds": seconds,
        "seeds": [SEED, SEED + args.rounds - 1],
        "traced_command": f"perfbench/run.py --trace 1 --seconds {TRACED_SECONDS}",
        "traced_seeds": [SEED, SEED + TRACED_RUNS - 1],
        "nproc": os.cpu_count(),
        "checkouts": {side: checkout_state(path) for side, path in sides.items()},
        "workloads": {},
    }
    any_failed = False
    for workload, runs in results.items():
        entry = {}
        for side, side_runs in runs.items():
            done = [r for r in side_runs if "metrics" in r]
            any_failed |= len(done) < len(side_runs)
            entry[side] = {
                "correct": sum(r["correct"] for r in done),
                "failed": sum(r["failed"] for r in done),
                "attempted": sum(r["attempted"] for r in done),
                "failed_runs": [r for r in side_runs if "metrics" not in r],
            }
            if done:
                entry[side].update({m: spread([r["metrics"][m]["value"] for r in done]) for m in metrics})
        pairs = {m: metric_pairs(runs["parent"], runs["change"], m) for m in metrics}
        entry["change_wins"] = {}
        for m, better in metrics.items():
            sign = -1 if better == "lower" else 1
            entry["change_wins"][m] = sum(sign * (c - p) > 0 for p, c in pairs[m])
        if all(m in entry[side] for side in sides for m in metrics):
            entry["median_change_over_parent"] = {
                m: entry["change"][m]["median"] / entry["parent"][m]["median"] for m in metrics
            }
            entry["resolved"] = {m: resolved(entry["parent"][m], entry["change"][m], pairs[m]) for m in metrics}
        traced = {side: [] for side in sides}
        for j in range(TRACED_RUNS):
            for side in list(sides) if j % 2 == 0 else list(sides)[::-1]:
                traced[side].append(run_once(sides[side], workload, SEED + j, TRACED_SECONDS, trace=1))
        any_failed |= any("metrics" not in r for runs_ in traced.values() for r in runs_)
        entry["traced"] = {side: traced_summary(runs_) for side, runs_ in traced.items()}
        traced_pairs = {m: metric_pairs(traced["parent"], traced["change"], m) for m in TRACED_METRICS}
        entry["traced_change_wins"] = {m: sum(c < p for p, c in traced_pairs[m]) for m in TRACED_METRICS}
        entry["traced_resolved"] = {
            m: resolved(entry["traced"]["parent"][m], entry["traced"]["change"][m], traced_pairs[m])
            for m in TRACED_METRICS
            if all(m in entry["traced"][side] for side in sides)
        }
        entry["traced_engine_counts_equal"] = all(
            p.get("engine_counts") is not None and simulation_counts(p) == simulation_counts(c)
            for p, c in zip(traced["parent"], traced["change"])
        )
        record["workloads"][workload] = entry
    record["tier1_command"] = "PYTHONPATH=src python " + " ".join(TIER1_COMMAND)
    record["tier1"] = {}
    for side, path in sides.items():
        print(f"tier1 {side}", file=sys.stderr, flush=True)
        record["tier1"][side] = run_tier1(path)
        any_failed |= record["tier1"][side]["returncode"] > 1
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
