"""Command-line interface.

    gossipsim run <config>      execute one experiment (or sweep), write CSV artifacts
    gossipsim sweep <config>    theta curve over the config's p_sweep list
    gossipsim report <dirs...>  consolidated table + gnuplot data files
    gossipsim topo <config>     emit the topology as a plain-text edge list

Exit code 0 on success; on failure a single machine-readable JSON line
({"error": ...}) goes to stderr and the exit code is nonzero.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from .experiments import parse_config, report, run_experiment, sweep_probability, write_topology


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gossipsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("run", "sweep"):
        p = sub.add_parser(name)
        p.add_argument("config")
        p.add_argument("--out", help="output directory (default: the config's name)")
        p.add_argument("--seed", type=int, help="override base_seed")
        p.add_argument("--runs", type=int, help="override run count")
        p.add_argument("--workers", type=int, default=1, help="parallel workers (output is identical)")

    p = sub.add_parser("report")
    p.add_argument("dirs", nargs="+")
    p.add_argument("--out", default=".", help="directory for gnuplot data files")

    p = sub.add_parser("topo")
    p.add_argument("config")
    p.add_argument("--out", help="edge-list file (default: stdout)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command in ("run", "sweep"):
            cfg = parse_config(args.config)
            if args.seed is not None:
                cfg = replace(cfg, base_seed=args.seed)
            if args.runs is not None:
                cfg = replace(cfg, runs=args.runs)
            runner = sweep_probability if args.command == "sweep" else run_experiment
            rs = runner(cfg, out_dir=args.out, workers=args.workers)
            print(f"{cfg.name}: {len(rs.artifacts)} artifact(s) in {rs.out_dir}")
            return 0
        if args.command == "report":
            print(report(args.dirs, out_dir=args.out))
            return 0
        cfg = parse_config(args.config)
        write_topology(cfg, args.out or sys.stdout)
        return 0
    except (ValueError, OSError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
