"""Workload definitions: which canned configs each workload runs, and how.

Every workload replaces each config's `base_seed` with seeds derived from
the benchmark's `--seed` (see run.py); the topology instances (and their RGG seeds) are part of the
workload definition and never change with the seed.  Run counts are cut
from the canned values so that one iteration takes about 3 s on a 2-core
machine and a 25 s window holds several iterations; see README.md.
"""

from __future__ import annotations

from dataclasses import dataclass

# The seed whose artifact digests are pinned in pins.json (the canned
# configs' own base_seed).
DEFAULT_SEED = 20260810


@dataclass(frozen=True)
class Entry:
    config: str  # path relative to the repository root
    overrides: tuple[tuple[str, int], ...] = ()


@dataclass(frozen=True)
class Workload:
    entries: tuple[Entry, ...]
    workers: int


WORKLOADS = {
    "grid300_sweep": Workload(
        entries=(Entry("configs/theta_sweep_300.cfg", (("runs", 10),)),),
        workers=1,
    ),
    "rgg1k_protocols": Workload(
        entries=tuple(
            Entry(f"configs/{name}.cfg", (("runs", 150),))
            for name in ("rnd8_p75", "rnd8_gossip2", "rnd8_gossip3", "grid_p65_bimodal")
        ),
        workers=1,
    ),
    "route_zone": Workload(
        entries=(
            Entry("configs/rnd8_retry.cfg", (("route_queries", 250),)),
            Entry("configs/zones100.cfg", (("runs", 1250),)),
        ),
        workers=1,
    ),
    "rgg10k_pool": Workload(
        entries=(Entry("perfbench/configs/rgg10k_pool.cfg"),),
        workers=2,
    ),
}
