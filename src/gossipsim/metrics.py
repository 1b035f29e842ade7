"""Aggregation of execution batches into the simulator's standard metrics.

Each metric is an accumulator: `add` takes one trace at a time (or
`consume` any iterable of traces, lists or generators), so large batches
never need to be held in memory, and `result`/`summary`/`theta`/`mean_ratio`
reads the estimate.  Proportions get Wilson 95% confidence intervals; means
get sample standard errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .engine import ExecutionTrace
from .protocols import Gossip3, Gossip4
from .textio import write_rows
from .topology import UNREACHABLE, DistanceMap, Graph, zone_levels


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials))
    return max(0.0, center - half), min(1.0, center + half)


@dataclass
class DistanceProfile:
    """Mean receive fraction per hop distance, over a batch of executions."""

    distances: np.ndarray
    node_count: np.ndarray
    fraction: np.ndarray
    stderr: np.ndarray
    runs: int

    def at(self, d: int) -> float:
        return float(self.fraction[d])

    def to_csv(self, path_or_file) -> None:
        rows = zip(self.distances, self.node_count, self.fraction, self.stderr)
        write_rows(path_or_file, "distance,count,fraction,stderr", rows)


@dataclass
class BimodalSummary:
    """Per-run band coverage, its histogram, and tail statistics."""

    band: tuple[int, int]
    coverages: np.ndarray
    bin_edges: np.ndarray
    bin_fraction: np.ndarray
    frac_below_10pct: float
    frac_below_20pct: float
    frac_above_80pct: float
    frac_above_90pct: float

    @property
    def runs(self) -> int:
        return self.coverages.size

    def to_csv(self, path_or_file) -> None:
        rows = list(zip(self.bin_edges[:-1], self.bin_edges[1:], self.bin_fraction))
        tails = ("below_10pct", "below_20pct", "above_80pct", "above_90pct")
        rows += [(tail, None, getattr(self, f"frac_{tail}")) for tail in tails]
        write_rows(path_or_file, "bin_lo,bin_hi,run_fraction", rows)


@dataclass
class ThetaEstimate:
    """Survival probability and conditional coverage for one batch."""

    theta_S: float
    ci: tuple[float, float]
    theta_R: Optional[float]
    theta_R_ci: Optional[tuple[float, float]]
    runs: int
    survivors: int
    extinction_threshold: float
    band: tuple[int, int]


@dataclass
class OverheadReport:
    mean_broadcasts: float
    ratio: float
    zone_unicasts: float = 0.0
    # Gossip3 timeout statistics (zero/None for other protocols):
    timeout_fraction: float = 0.0        # timeout forwards / broadcasts
    frac_L_ge1: float = 0.0              # broadcasts whose carried L >= 1
    L_le2_given_ge1: Optional[float] = None  # of those, fraction with L <= 2
    timeout_L_le2: Optional[float] = None  # timeout forwards with carried L <= 2


class _Consumer:
    """Base for one-pass trace accumulators."""

    def add(self, trace: ExecutionTrace) -> None:
        raise NotImplementedError

    def consume(self, traces: Iterable[ExecutionTrace]) -> "_Consumer":
        count = 0
        for tr in traces:
            self.add(tr)
            count += 1
        if count == 0:
            raise ValueError("empty trace list")
        return self


class ProfileAccumulator(_Consumer):
    def __init__(self, dmap: DistanceMap):
        self.dmap = dmap
        self.counts = dmap.counts()
        self.dmax = self.counts.size - 1
        self.runs = 0
        self.sum = np.zeros(self.dmax + 1)
        self.sumsq = np.zeros(self.dmax + 1)

    def add(self, trace: ExecutionTrace) -> None:
        self._add_reached(trace.received)

    def _add_reached(self, reached: np.ndarray) -> None:
        mask = reached & (self.dmap.dist != UNREACHABLE)
        frac = np.bincount(self.dmap.dist[mask], minlength=self.dmax + 1) / self.counts
        self.runs += 1
        self.sum += frac
        self.sumsq += frac * frac

    def result(self) -> DistanceProfile:
        mean = self.sum / self.runs
        if self.runs > 1:
            var = (self.sumsq - self.runs * mean * mean) / (self.runs - 1)
            stderr = np.sqrt(np.maximum(var, 0.0) / self.runs)
        else:
            stderr = np.zeros_like(mean)
        return DistanceProfile(
            distances=np.arange(self.dmax + 1),
            node_count=self.counts,
            fraction=mean,
            stderr=stderr,
            runs=self.runs,
        )


class CoverageAccumulator(_Consumer):
    """Collects per-run receive coverage over a distance band."""

    def __init__(self, dmap: DistanceMap, band: tuple[int, int]):
        lo, hi = band
        if lo > hi:
            raise ValueError("band must be [d_lo, d_hi] with d_lo <= d_hi")
        self.band = (int(lo), int(hi))
        self.members = (dmap.dist >= lo) & (dmap.dist <= hi)
        self.size = int(self.members.sum())
        if self.size == 0:
            raise ValueError(f"band {band} contains no nodes")
        self.coverages: list[float] = []

    def add(self, trace: ExecutionTrace) -> None:
        self.coverages.append(float(trace.received[self.members].sum() / self.size))

    def summary(self) -> BimodalSummary:
        cov = np.array(self.coverages)
        hist, edges = np.histogram(cov, bins=10, range=(0.0, 1.0))
        return BimodalSummary(
            band=self.band,
            coverages=cov,
            bin_edges=edges,
            bin_fraction=hist / cov.size,
            frac_below_10pct=float((cov < 0.10).mean()),
            frac_below_20pct=float((cov < 0.20).mean()),
            frac_above_80pct=float((cov > 0.80).mean()),
            frac_above_90pct=float((cov > 0.90).mean()),
        )

    def theta(self, extinction_threshold: float = 0.5) -> ThetaEstimate:
        if not 0.0 < extinction_threshold < 1.0:
            raise ValueError("extinction threshold must be in (0, 1)")
        cov = np.array(self.coverages)
        surv = cov >= extinction_threshold
        k = int(surv.sum())
        ci = wilson_interval(k, cov.size)
        if k > 0:
            mean_r = float(cov[surv].mean())
            if k > 1:
                half = 1.96 * float(cov[surv].std(ddof=1)) / math.sqrt(k)
            else:
                half = 0.0
            r_ci = (max(0.0, mean_r - half), min(1.0, mean_r + half))
        else:
            mean_r, r_ci = None, None
        return ThetaEstimate(
            theta_S=k / cov.size,
            ci=ci,
            theta_R=mean_r,
            theta_R_ci=r_ci,
            runs=cov.size,
            survivors=k,
            extinction_threshold=extinction_threshold,
            band=self.band,
        )


class OverheadAccumulator(_Consumer):
    """Broadcasts per run relative to flooding (the component size); gossip4
    zone unicasts are counted apart and never enter the ratio."""

    def __init__(self, flooding_baseline: int, g: Graph):
        if flooding_baseline <= 0:
            raise ValueError("flooding baseline must be positive")
        self.baseline = flooding_baseline
        self.g = g
        self.broadcasts: list[int] = []
        self.unicasts: list[int] = []
        self.timeouts = 0
        self.L_ge1 = 0
        self.L_in_1_2 = 0
        self.timeout_L_le2 = 0

    def add(self, trace: ExecutionTrace) -> None:
        self.broadcasts.append(trace.broadcast_count)
        if isinstance(trace.protocol, Gossip4) and trace.protocol.zone_radius > 0:
            level = _trace_zone_levels(self.g, trace.received, trace.protocol.zone_radius)
            self.unicasts.append(int(level[level > 0].sum()))
        if isinstance(trace.protocol, Gossip3):
            self.timeouts += int(trace.timeout_forward.sum())
            sent = trace.sent_L()
            ge1 = sent >= 1
            self.L_ge1 += int(ge1.sum())
            self.L_in_1_2 += int((ge1 & (sent <= 2)).sum())
            timeout_sent = trace.L_at_receipt[trace.timeout_forward] + 1
            self.timeout_L_le2 += int((timeout_sent <= 2).sum())

    def result(self) -> OverheadReport:
        mean_b = float(np.mean(self.broadcasts))
        mean_u = float(np.mean(self.unicasts)) if self.unicasts else 0.0
        total_b = int(np.sum(self.broadcasts))
        return OverheadReport(
            mean_broadcasts=mean_b,
            ratio=mean_b / self.baseline,
            zone_unicasts=mean_u,
            timeout_fraction=self.timeouts / total_b if total_b else 0.0,
            frac_L_ge1=self.L_ge1 / total_b if total_b else 0.0,
            L_le2_given_ge1=self.L_in_1_2 / self.L_ge1 if self.L_ge1 else None,
            timeout_L_le2=self.timeout_L_le2 / self.timeouts if self.timeouts else None,
        )


class ZoneCoverageAccumulator(_Consumer):
    def __init__(self, g: Graph, dmap: DistanceMap, zone_radius: int):
        if zone_radius < 0:
            raise ValueError("zone_radius must be non-negative")
        self.g = g
        self.zone_radius = zone_radius
        self.inner = ProfileAccumulator(dmap)

    def add(self, trace: ExecutionTrace) -> None:
        self.inner._add_reached(_trace_zone_levels(self.g, trace.received, self.zone_radius) >= 0)

    def result(self) -> DistanceProfile:
        return self.inner.result()


class RouteLengthAccumulator(_Consumer):
    """Mean hop/shortest ratio over reached nodes at distance >= min_distance."""

    def __init__(self, dmap: DistanceMap, min_distance: int):
        self.dmap = dmap
        self.min_distance = min_distance
        self.eligible = (dmap.dist >= max(min_distance, 1)) & (dmap.dist != UNREACHABLE)
        self.total = 0.0
        self.count = 0

    def add(self, trace: ExecutionTrace) -> None:
        mask = self.eligible & trace.received
        if mask.any():
            ratios = trace.hop[mask] / self.dmap.dist[mask]
            self.total += float(ratios.sum())
            self.count += int(mask.sum())

    def mean_ratio(self) -> float:
        if self.count == 0:
            raise ValueError("no reached destinations at or beyond the minimum distance")
        return self.total / self.count


# (received, graph, radius, levels) of the last trace, so the overhead and
# zone-coverage accumulators share one BFS per trace
_last_zone: Optional[tuple] = None


def _trace_zone_levels(g: Graph, received: np.ndarray, zone_radius: int) -> np.ndarray:
    """`zone_levels`, memoized on a trace's read-only `received` array."""
    global _last_zone
    memo = _last_zone
    if (
        memo is not None
        and memo[0] is received
        and memo[1] is g
        and memo[2] == zone_radius
        and not received.flags.writeable
    ):
        return memo[3]
    level = zone_levels(g, received, zone_radius)
    level.flags.writeable = False
    _last_zone = (received, g, zone_radius, level) if not received.flags.writeable else None
    return level


def theta_rows_to_csv(path_or_file, rows: Sequence[tuple[float, ThetaEstimate]]) -> None:
    """CSV rows `p,theta_S,ci_lo,ci_hi,theta_R` for a probability sweep."""
    cells = ((float(p), est.theta_S, *est.ci, est.theta_R) for p, est in rows)
    write_rows(path_or_file, "p,theta_S,ci_lo,ci_hi,theta_R", cells)
