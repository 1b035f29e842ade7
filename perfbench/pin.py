"""Regenerate pins.json: every workload's artifact digests at the pinned seed.

    python3 perfbench/pin.py

Run it only when a change is meant to alter artifacts; a speed-up must
leave pins.json as it is.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> int:
    gs = run.load_program()
    pins = {"seed": DEFAULT_SEED, "workloads": {}}
    work_root = run.HERE / ".work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="pin-", dir=work_root))
    try:
        for name, wl in WORKLOADS.items():
            checker = run.Checker({})
            it = run.run_iteration(gs, wl, run.load_configs(gs, wl, DEFAULT_SEED), work / name, checker)
            if checker.failed:
                sys.exit(f"pin: {name} failed: {checker.problems}")
            pins["workloads"][name] = {
                cfg: {"hash": digest, "artifacts": checker.expected[cfg, seed]}
                for (cfg, seed), digest in it.digests.items()
            }
            print(f"{name}: {it.wall_s:.2f} s, {len(it.digests)} config(s)")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (run.HERE / "pins.json").write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
