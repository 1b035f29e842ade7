#!/usr/bin/env python3
"""Run the canned experiments and print a consolidated summary table.

Artifacts land in results/<name>/; pass --quick to cut run counts by 10x
for a fast smoke pass.  At full size the whole set took about 20 s at one
worker on a 2-vCPU host, most of it theta_sweep_300.
"""

import argparse
import os
import sys
from dataclasses import replace

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from gossipsim.experiments import parse_config, report, run_experiment

FIGURE_CONFIGS = [
    "grid_p72_profile",
    "grid_p65_bimodal",
    "mesh6_p65",
    "mesh3_p86",
    "mesh3_p65",
    "rnd8_bimodal",
    "rnd8_gossip3",
    "rnd8_p75",
    "rnd8_gossip2",
    "rnd8_p80",
    "zones100",
    "rnd8_retry",
    "rnd8_routelen",
    "theta_sweep_300",
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=os.path.join(REPO, "results"))
    parser.add_argument("--quick", action="store_true", help="10x fewer runs")
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args()

    dirs = []
    for name in FIGURE_CONFIGS:
        cfg = parse_config(os.path.join(REPO, "configs", name + ".cfg"))
        if args.quick:
            cfg = replace(cfg, runs=max(20, cfg.runs // 10))
        out_dir = os.path.join(args.out, name)
        rs = run_experiment(cfg, out_dir=out_dir, workers=args.workers)
        print(f"{name}: {len(rs.artifacts)} artifact(s) -> {out_dir}")
        dirs.append(out_dir)

    print()
    print(report(dirs, out_dir=args.out))
    print(f"\ngnuplot data files written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
