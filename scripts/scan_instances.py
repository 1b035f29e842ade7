#!/usr/bin/env python3
"""Scan random-geometric instance seeds for experiment-worthy networks.

The canned configs pin specific generator seeds; this is the tool that
found them.  For each candidate seed it reports degree statistics,
connectivity from the westmost node, and the survival/coverage behavior
of gossip at the probe probability.
"""

import argparse
import os
import sys

import numpy as np

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from gossipsim import Gossip1, RandomGeometric, UNREACHABLE, build_topology, hop_distances, iter_batch
from gossipsim.metrics import CoverageAccumulator


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=1000)
    parser.add_argument("--width", type=float, default=7500)
    parser.add_argument("--height", type=float, default=3000)
    parser.add_argument("--radius", type=float, default=250)
    parser.add_argument("--seeds", type=int, default=20, help="scan seeds 1..N")
    parser.add_argument("--probe-p", type=float, default=0.65)
    parser.add_argument("--probe-k", type=int, default=4)
    parser.add_argument("--band", type=int, nargs=2, default=(15, 35))
    parser.add_argument("--runs", type=int, default=300)
    args = parser.parse_args()

    print(f"{'seed':>4} {'deg':>6} {'comp':>5} {'maxd':>4} {'theta_S':>8} {'<10%':>6} {'>90%':>6}")
    for seed in range(1, args.seeds + 1):
        spec = RandomGeometric(args.nodes, args.width, args.height, args.radius, seed)
        g = build_topology(spec)
        mean_deg = g.degrees.mean()
        src = int(np.argmin(g.coords[:, 0]))
        dm = hop_distances(g, src)
        comp = int((dm.dist != UNREACHABLE).sum())
        if dm.max_distance < args.band[1]:
            print(f"{seed:>4} {mean_deg:>6.2f} {comp:>5} {dm.max_distance:>4}  (band outside graph)")
            continue
        acc = CoverageAccumulator(dm, tuple(args.band))
        acc.consume(iter_batch(g, src, Gossip1(args.probe_p, args.probe_k), args.runs, 555))
        est = acc.theta()
        summary = acc.summary()
        print(
            f"{seed:>4} {mean_deg:>6.2f} {comp:>5} {dm.max_distance:>4} "
            f"{est.theta_S:>8.3f} {summary.frac_below_10pct:>6.2f} {summary.frac_above_90pct:>6.2f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
