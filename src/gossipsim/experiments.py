"""Declarative experiment runner: flat-text configs in, CSV artifacts out.

A config is a flat `key: value` file (schema_version 1, '#' comments,
unknown keys rejected).  Running one builds the topology, resolves the
source, executes a seeded batch, applies the requested metrics, and writes
one CSV per metric plus a manifest carrying seed information and a SHA-256
per artifact.  Identical configs produce byte-identical artifacts.  This
module alone knows the CSV formats: each CSV is a (header, rows) table.

Run i of a batch uses seed child(base_seed, i); sweep entry j derives its
own batch from child(base_seed, j); route-discovery query j uses
child(base_seed, 2**33 + j); a RANDOM source uses child(base_seed, 2**48).
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from . import metrics as M
from .engine import iter_batch
from .protocols import (
    FLOODING,
    Gossip1,
    Gossip2,
    Gossip3,
    Gossip4,
    ProtocolSpec,
    protocol_name,
)
from .rng import child_seed
from .routing import RouteResult, discover_route, query_for
from .textio import write_rows
from .topology import (
    UNREACHABLE,
    DistanceMap,
    Graph,
    Grid,
    RandomGeometric,
    RegularMesh,
    TopologySpec,
    build_topology,
    grid_index,
    hop_distances,
)

SCHEMA_VERSION = 1

_RANDOM_SOURCE_STREAM = 2**48
_ROUTE_QUERY_STREAM = 2**33
_TAILS = ("below_10pct", "below_20pct", "above_80pct", "above_90pct")  # bimodal.csv's last rows, by bin_lo


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class SourcePlacement:
    kind: str  # left_row | center_row | node | random
    value: int = 0

    def __post_init__(self):
        if self.kind not in ("left_row", "center_row", "node", "random"):
            raise ValueError(f"unknown source kind {self.kind!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    topology: TopologySpec
    source: SourcePlacement
    runs: int
    base_seed: int
    metrics: frozenset[str] = frozenset()
    protocol: Optional[ProtocolSpec] = None
    band: Optional[tuple[int, int]] = None
    extinction_threshold: float = 0.5
    route_distance: int = 25
    route_attempts: int = 2
    route_queries: int = 1000
    route_min_distance: int = 10
    p_sweep: Optional[tuple[float, ...]] = None
    sweep_k: Optional[int] = None

    def __post_init__(self):
        """Every check that needs no graph, so a config in hand is valid."""
        if not self.name:
            raise ConfigError("name must be non-empty")
        if isinstance(self.topology, RandomGeometric) and self.source.kind in ("left_row", "center_row"):
            if self.source.value != 0:  # an rgg has no rows: row 0 names its west edge or centre
                raise ConfigError(f"source {self.source.kind} {self.source.value}: an rgg takes only row 0")
        for key in ("runs", "route_distance", "route_queries", "route_attempts", "route_min_distance"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1")
        if not 0.0 < self.extinction_threshold < 1.0:
            raise ConfigError("extinction_threshold must be in (0, 1)")
        unknown = self.metrics - KNOWN_METRICS
        if unknown:
            raise ConfigError(f"unknown metrics: {sorted(unknown)}")
        if self.band is not None and not 0 <= self.band[0] <= self.band[1]:
            raise ConfigError(f"band must be 0 <= lo <= hi, got {self.band}")
        needs_band = self.metrics & {"bimodal", "theta"}
        if needs_band and self.band is None:
            raise ConfigError(f"metrics {sorted(needs_band)} require a band")
        if "zone_coverage" in self.metrics and not isinstance(self.protocol, Gossip4):
            raise ConfigError("zone_coverage metric requires a gossip4 protocol")
        if (self.p_sweep is None) != (self.sweep_k is None):
            raise ConfigError("p_sweep and sweep_k go together")
        if self.p_sweep is not None:
            if not self.p_sweep:
                raise ConfigError("p_sweep must be non-empty")
            if any(not 0.0 <= v <= 1.0 for v in self.p_sweep):
                raise ConfigError("p_sweep probabilities must be in [0, 1]")
            if list(self.p_sweep) != sorted(self.p_sweep):
                raise ConfigError("p_sweep must be ascending")
            if self.sweep_k < 0:
                raise ConfigError("sweep_k must be >= 0")
            if self.protocol is not None:
                raise ConfigError("a p_sweep runs gossip1(p, sweep_k); it takes no protocol")
            if self.metrics - {"theta"}:
                raise ConfigError("a p_sweep computes only the theta metric")
            if self.band is None:
                raise ConfigError("p_sweep requires a band")
        elif self.metrics and self.protocol is None:
            raise ConfigError("metrics require a protocol (or a p_sweep)")


@dataclass
class ResultSet:
    config: ExperimentConfig
    out_dir: str
    source_node: int
    component_size: int
    excluded_nodes: int
    artifacts: dict[str, str]  # filename -> sha256
    results: dict[str, object] = field(default_factory=dict)


# The value parsers read a value's shape; the specs they build check its
# ranges.  A ValueError from either is reported as a bad value of the key.


def _parse_topology(text: str) -> TopologySpec:
    parts = text.split() or [""]  # an empty value matches no kind
    if parts[0] == "grid" and len(parts) == 3:
        return Grid(int(parts[1]), int(parts[2]))
    if parts[0] in ("mesh3", "mesh6") and len(parts) == 3:
        return RegularMesh(int(parts[0][-1]), int(parts[1]), int(parts[2]))
    if parts[0] == "rgg" and len(parts) == 6:
        return RandomGeometric(int(parts[1]), float(parts[2]), float(parts[3]), float(parts[4]), int(parts[5]))
    raise ConfigError(f"bad topology value: {text!r}")


def _parse_protocol(text: str) -> ProtocolSpec:
    parts = text.split() or [""]
    if parts[0] == "flooding" and len(parts) == 1:
        return FLOODING
    if parts[0] == "gossip1" and len(parts) == 3:
        return Gossip1(float(parts[1]), int(parts[2]))
    if parts[0] == "gossip2" and len(parts) == 5:
        return Gossip2(float(parts[1]), int(parts[2]), float(parts[3]), int(parts[4]))
    if parts[0] == "gossip3" and len(parts) in (4, 5):  # the timeout is optional
        return Gossip3(float(parts[1]), int(parts[2]), *(int(v) for v in parts[3:]))
    if parts[0] == "gossip4" and len(parts) == 4:
        return Gossip4(float(parts[1]), int(parts[2]), int(parts[3]))
    raise ConfigError(f"bad protocol value: {text!r}")


def _parse_source(text: str) -> SourcePlacement:
    parts = text.split() or [""]
    if len(parts) == (1 if parts[0] == "random" else 2):
        return SourcePlacement(parts[0], *(int(v) for v in parts[1:]))
    raise ConfigError(f"bad source value: {text!r}")


def _parse_band(text: str) -> tuple[int, int]:
    parts = text.split()
    if len(parts) != 2:
        raise ConfigError(f"bad band value: {text!r}")
    return int(parts[0]), int(parts[1])


# config key -> parser of its value; every key but schema_version is the
# ExperimentConfig field of that name, and a key left out takes its default
_KEYS: dict[str, Callable[[str], object]] = {
    "schema_version": int,
    "name": str,
    "topology": _parse_topology,
    "source": _parse_source,
    "protocol": _parse_protocol,
    "runs": int,
    "base_seed": int,
    "band": _parse_band,
    "metrics": lambda text: frozenset(text.split()),
    "extinction_threshold": float,
    "route_distance": int,
    "route_attempts": int,
    "route_queries": int,
    "route_min_distance": int,
    "p_sweep": lambda text: tuple(float(v) for v in text.split()),
    "sweep_k": int,
}


def _parse_value(key: str, text: str) -> object:
    """`_KEYS[key](text)`, with a bare ValueError reported as a bad value of `key`."""
    try:
        return _KEYS[key](text)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"bad {key} value: {text!r} ({exc})") from None


def parse_config_text(text: str, default_name: str = "experiment") -> ExperimentConfig:
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if ":" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key: value', got {line!r}")
        key, value = stripped.split(":", 1)
        key = key.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value.strip()

    for req in ("schema_version", "topology", "source", "runs", "base_seed"):
        if req not in raw:
            raise ConfigError(f"missing required key {req!r}")
    version = _parse_value("schema_version", raw.pop("schema_version"))
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version}")
    fields = {key: _parse_value(key, value) for key, value in raw.items()}
    return ExperimentConfig(**{"name": default_name, **fields})


def parse_config(path: str) -> ExperimentConfig:
    with open(path) as f:
        text = f.read()
    default = os.path.splitext(os.path.basename(path))[0]
    return parse_config_text(text, default_name=default)


def resolve_source(cfg: ExperimentConfig, g: Graph) -> int:
    """Map the configured placement to a node id (deterministically)."""
    placement = cfg.source
    spec = cfg.topology
    if placement.kind == "node":
        if not 0 <= placement.value < g.n:
            raise ConfigError(f"source node {placement.value} outside graph")
        return placement.value
    if placement.kind == "random":
        return child_seed(cfg.base_seed, _RANDOM_SOURCE_STREAM) % g.n
    if isinstance(spec, (Grid, RegularMesh)):
        if placement.kind == "left_row":
            return grid_index(spec.rows, spec.cols, placement.value, 0)
        return grid_index(spec.rows, spec.cols, placement.value, spec.cols // 2)
    # geometric graphs, row 0 only (the config checks): westmost node / node nearest the region center
    if placement.kind == "left_row":
        return int(np.argmin(g.coords[:, 0]))
    center = np.array([spec.width / 2.0, spec.height / 2.0])
    d2 = ((g.coords - center) ** 2).sum(axis=1)
    return int(np.argmin(d2))


def boundary_mask(spec: TopologySpec, g: Graph) -> np.ndarray:
    """Nodes on (lattices) or within one radio radius of (RGG) the region edge."""
    if isinstance(spec, (Grid, RegularMesh)):
        ids = np.arange(g.n)
        r, c = ids // spec.cols, ids % spec.cols
        return (r == 0) | (r == spec.rows - 1) | (c == 0) | (c == spec.cols - 1)
    x, y = g.coords[:, 0], g.coords[:, 1]
    rad = spec.radius
    return (x < rad) | (x > spec.width - rad) | (y < rad) | (y > spec.height - rad)


def _check_theta_placement(cfg: ExperimentConfig, g: Graph, dmap) -> None:
    mask = boundary_mask(cfg.topology, g)
    reach = mask & (dmap.dist != UNREACHABLE)
    if not reach.any():
        return
    min_boundary = int(dmap.dist[reach].min())
    if min_boundary <= cfg.band[1]:
        raise ConfigError(
            f"theta run needs source farther from the boundary: min boundary distance "
            f"{min_boundary} <= band max {cfg.band[1]}"
        )


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _config_echo(cfg: ExperimentConfig) -> dict:
    echo = {
        "name": cfg.name,
        "topology": repr(cfg.topology),
        "source": f"{cfg.source.kind} {cfg.source.value}",
        "protocol": protocol_name(cfg.protocol) if cfg.protocol else None,
        "runs": cfg.runs,
        "base_seed": cfg.base_seed,
        "band": list(cfg.band) if cfg.band else None,
        "metrics": sorted(cfg.metrics),
        "extinction_threshold": cfg.extinction_threshold,
    }
    if cfg.p_sweep is not None:
        echo["p_sweep"] = list(cfg.p_sweep)
        echo["sweep_k"] = cfg.sweep_k
    return echo


def _setup(cfg: ExperimentConfig, out_dir: Optional[str], workers: int) -> tuple[ResultSet, Graph, DistanceMap]:
    """Graph, source, distances and the graph-dependent checks; writes nothing."""
    if workers < 1:  # iter_batch checks it too, but a batch-free config never gets there
        raise ValueError("workers must be >= 1")
    g = build_topology(cfg.topology)
    source = resolve_source(cfg, g)
    dmap = hop_distances(g, source)
    component = int((dmap.dist != UNREACHABLE).sum())
    if "theta" in cfg.metrics or cfg.p_sweep is not None:
        _check_theta_placement(cfg, g, dmap)
    if "route_length" in cfg.metrics and dmap.max_distance < cfg.route_min_distance:
        raise ConfigError(
            f"route_min_distance {cfg.route_min_distance} is beyond the source's reach "
            f"(max distance {dmap.max_distance})"
        )
    rs = ResultSet(
        config=cfg,
        out_dir=out_dir or cfg.name,
        source_node=source,
        component_size=component,
        excluded_nodes=g.n - component,
        artifacts={},
    )
    return rs, g, dmap


def _emit(rs: ResultSet, tables: dict[str, tuple[str, Iterable[Sequence]]]) -> ResultSet:
    """Create the output directory, remove the artifacts its old manifest lists,
    write and hash each table, then the manifest."""
    os.makedirs(rs.out_dir, exist_ok=True)
    old = os.path.join(rs.out_dir, "manifest.json")
    if os.path.exists(old):  # a rerun leaves only its own manifest's files
        with open(old) as f:
            for name in json.load(f).get("artifacts", {}):
                path = os.path.join(rs.out_dir, name)  # plain names only: nothing outside out_dir
                if os.path.basename(name) == name not in ("", ".", "..", "manifest.json") and os.path.isfile(path):
                    os.remove(path)
    for name, (header, rows) in tables.items():
        path = os.path.join(rs.out_dir, name)
        write_rows(path, header, rows)
        rs.artifacts[name] = _sha256(path)
    combined = hashlib.sha256()
    for name in sorted(rs.artifacts):
        combined.update(name.encode())
        combined.update(bytes.fromhex(rs.artifacts[name]))
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "config": _config_echo(rs.config),
        "source_node": rs.source_node,
        "component_size": rs.component_size,
        "excluded_nodes": rs.excluded_nodes,
        "seed_rule": "run i uses child(base_seed, i); sweep entry j uses child(base_seed, j)",
        "artifacts": rs.artifacts,
        "hash": combined.hexdigest(),
    }
    write_rows(os.path.join(rs.out_dir, "manifest.json"), json.dumps(manifest, indent=2, sort_keys=True), [])
    return rs


def _profile_table(prof: M.DistanceProfile):
    return "distance,count,fraction,stderr", zip(prof.distances, prof.node_count, prof.fraction, prof.stderr)


def _bimodal_table(s: M.BimodalSummary):
    tails = [(tail, None, getattr(s, f"frac_{tail}")) for tail in _TAILS]
    return "bin_lo,bin_hi,run_fraction", [*zip(s.bin_edges[:-1], s.bin_edges[1:], s.bin_fraction), *tails]


def _theta_table(rows: Sequence[tuple[float, M.ThetaEstimate]]):
    """One row per (p, estimate): theta.csv has one, theta_curve.csv one per sweep entry."""
    return "p,theta_S,ci_lo,ci_hi,theta_R", [(float(p), est.theta_S, *est.ci, est.theta_R) for p, est in rows]


def _route_table(rows: Sequence[tuple[int, int, RouteResult]]):
    return "src,dst,found,attempts,broadcasts,route_len,shortest_len", [
        (s, d, r.found, r.attempts_used, r.total_broadcasts, r.route_length, r.shortest_length) for s, d, r in rows
    ]


def _finish_theta(acc: M.CoverageAccumulator, cfg: ExperimentConfig):
    est = acc.theta(cfg.extinction_threshold)
    p = getattr(cfg.protocol, "p", getattr(cfg.protocol, "p1", 1.0))
    return est, _theta_table([(p, est)])


def _finish_overhead(acc: M.OverheadAccumulator, cfg: ExperimentConfig):
    r = acc.result()
    header = "mean_broadcasts,ratio,zone_unicasts,baseline,timeout_fraction,frac_L_ge1,timeout_L_le2"
    cells = (r.mean_broadcasts, r.ratio, r.zone_unicasts, acc.baseline, r.timeout_fraction, r.frac_L_ge1)
    return r, (header, [(*cells, r.timeout_L_le2)])


def _finish_route_length(acc: M.RouteLengthAccumulator, cfg: ExperimentConfig):
    ratio = acc.mean_ratio()
    return ratio, ("mean_ratio,samples,min_distance", [(ratio, acc.count, acc.min_distance)])


def _coverage(rs: ResultSet, g: Graph, dmap: DistanceMap) -> M.CoverageAccumulator:
    return M.CoverageAccumulator(dmap, rs.config.band)


def _overhead(rs: ResultSet, g: Graph, dmap: DistanceMap) -> M.OverheadAccumulator:
    """Serves overhead and zone_coverage; a gossip4 batch's zone accumulator
    rides inside it, so each trace gets one zone BFS."""
    protocol = rs.config.protocol
    zone = M.ZoneCoverageAccumulator(g, dmap, protocol.zone_radius) if isinstance(protocol, Gossip4) else None
    return M.OverheadAccumulator(rs.component_size, zone)


# metric -> (accumulator factory(rs, g, dmap), finish(acc, cfg) returning the
# metric's result and its artifact's table, <metric>.csv).  Metrics that name
# the same factory share one accumulator.
_METRICS = {
    "profile": (
        lambda rs, g, dmap: M.ProfileAccumulator(dmap),
        lambda acc, cfg: (r := acc.result(), _profile_table(r)),
    ),
    "bimodal": (_coverage, lambda acc, cfg: (s := acc.summary(), _bimodal_table(s))),
    "theta": (_coverage, _finish_theta),
    "overhead": (_overhead, _finish_overhead),
    "zone_coverage": (_overhead, lambda acc, cfg: (r := acc.zone.result(), _profile_table(r))),
    "route_length": (
        lambda rs, g, dmap: M.RouteLengthAccumulator(dmap, rs.config.route_min_distance),
        _finish_route_length,
    ),
}
# route_discovery runs its own queries rather than reading the batch
KNOWN_METRICS = frozenset(_METRICS) | {"route_discovery"}


def run_experiment(cfg: ExperimentConfig, out_dir: Optional[str] = None, workers: int = 1) -> ResultSet:
    """Execute one experiment (a p_sweep config runs `sweep_probability`) and write its artifacts."""
    if cfg.p_sweep is not None:
        return sweep_probability(cfg, out_dir, workers)
    if cfg.protocol is None:
        raise ConfigError("run requires a protocol")
    rs, g, dmap = _setup(cfg, out_dir, workers)
    metrics = {name: entry for name, entry in _METRICS.items() if name in cfg.metrics}
    accs = {}
    for make, _ in metrics.values():
        if make not in accs:
            accs[make] = make(rs, g, dmap)
    tables = {}
    if "route_discovery" in cfg.metrics:  # first, so a bad route_distance fails before the batch
        rs.results["route_discovery"], tables = _route_discovery(rs, g, dmap)
    if accs:
        for trace in iter_batch(g, rs.source_node, cfg.protocol, cfg.runs, cfg.base_seed, workers=workers):
            for acc in accs.values():
                acc.add(trace)
    for name, (make, finish) in metrics.items():
        rs.results[name], tables[f"{name}.csv"] = finish(accs[make], cfg)
    return _emit(rs, tables)


def _route_discovery(rs: ResultSet, g: Graph, dmap: DistanceMap):
    cfg, source = rs.config, rs.source_node
    dests = np.flatnonzero(dmap.dist == cfg.route_distance)
    if not dests.size:
        raise ConfigError(f"no destinations at distance {cfg.route_distance}")
    rows = []
    found = one_shot = broadcasts = 0
    for j in range(cfg.route_queries):
        dest = int(dests[j % dests.size])
        q = query_for(g, source, dest, cfg.protocol, max_attempts=cfg.route_attempts)
        r = discover_route(g, q, child_seed(cfg.base_seed, _ROUTE_QUERY_STREAM + j), dmap)
        rows.append((source, dest, r))
        found += r.found
        one_shot += r.found and r.attempts_used == 1
        broadcasts += r.total_broadcasts
    summary = {
        "queries": cfg.route_queries,
        "success_rate": found / cfg.route_queries,
        "one_attempt_rate": one_shot / cfg.route_queries,
        "mean_broadcasts": broadcasts / cfg.route_queries,
    }
    return summary, {
        "route_discovery.csv": _route_table(rows),
        "route_summary.csv": (",".join(summary), [tuple(summary.values())]),
    }


def sweep_probability(cfg: ExperimentConfig, out_dir: Optional[str] = None, workers: int = 1) -> ResultSet:
    """Theta estimate per probability in the sweep list; emits the curve CSV."""
    if cfg.p_sweep is None:
        raise ConfigError("sweep requires p_sweep and sweep_k")
    rs, g, dmap = _setup(cfg, out_dir, workers)
    rows = []
    for j, p in enumerate(cfg.p_sweep):
        acc = M.CoverageAccumulator(dmap, cfg.band)
        spec = Gossip1(p, cfg.sweep_k)
        batch = iter_batch(g, rs.source_node, spec, cfg.runs, child_seed(cfg.base_seed, j), workers=workers)
        rows.append((p, acc.consume(batch).theta(cfg.extinction_threshold)))
    rs.results["theta_curve"] = rows
    return _emit(rs, {"theta_curve.csv": _theta_table(rows)})


def load_manifest(result_dir: str) -> dict:
    path = os.path.join(result_dir, "manifest.json")
    if not os.path.exists(path):
        raise FileNotFoundError(f"no manifest in {result_dir}")
    with open(path) as f:
        manifest = json.load(f)
    for name, digest in manifest.get("artifacts", {}).items():
        apath = os.path.join(result_dir, name)
        if not os.path.exists(apath):
            raise ValueError(f"{result_dir}: missing artifact {name}")
        if _sha256(apath) != digest:
            raise ValueError(f"{result_dir}: artifact {name} does not match its manifest hash")
    return manifest


def _read_rows(result_dir: str, manifest: dict, name: str) -> list[dict]:
    """Rows of a result CSV keyed by its header; none unless the manifest lists it."""
    if name not in manifest.get("artifacts", {}):
        return []
    with open(os.path.join(result_dir, name), newline="") as f:
        return list(csv.DictReader(f))


def _first_cell(result_dir: str, manifest: dict, name: str, column: str) -> Optional[float]:
    """`column` of a result CSV's first row; None unless the manifest lists it."""
    rows = _read_rows(result_dir, manifest, name)
    return float(rows[0][column]) if rows else None


_TABLE_ROW = "{:<24} {:<22} {:>7} {:>8} {:>6} {:>6} {:>6} {:>6} {:>7}"
_GNUPLOT_SCRIPT = (
    'set xlabel "gossip probability p"\n'
    'set ylabel "theta_S"\n'
    'set yrange [0:1.05]\n'
    'plot for [i=0:*] "report_theta.dat" index i using 1:2 '
    'with linespoints title sprintf("series %d", i)'
)


def report(result_dirs: list[str], out_dir: str = ".") -> str:
    """Consolidated table across experiment directories, plus gnuplot data files."""
    if not result_dirs:
        raise ValueError("no result directories given")
    os.makedirs(out_dir, exist_ok=True)
    columns = ("experiment", "protocol", "ratio", "theta_S", "<10%", ">80%", ">90%", "route", "stretch")
    lines = [_TABLE_ROW.format(*columns)]
    theta_blocks = []
    overhead_rows = []
    for d in result_dirs:
        manifest = load_manifest(d)
        name = manifest["config"]["name"]
        proto = manifest["config"].get("protocol") or "sweep"
        theta_s = None
        ratio = _first_cell(d, manifest, "overhead.csv", "ratio")
        if ratio is not None:
            overhead_rows.append((name, ratio))
        route = _first_cell(d, manifest, "route_summary.csv", "success_rate")
        stretch = _first_cell(d, manifest, "route_length.csv", "mean_ratio")
        for theta_name in ("theta.csv", "theta_curve.csv"):
            pts = [(float(r["p"]), float(r["theta_S"])) for r in _read_rows(d, manifest, theta_name)]
            if pts:
                theta_s = pts[-1][1]
                theta_blocks.append((name, pts))
        tails = {r["bin_lo"]: float(r["run_fraction"]) for r in _read_rows(d, manifest, "bimodal.csv")}
        cells = (ratio, theta_s, *map(tails.get, (_TAILS[0], *_TAILS[2:])), route, stretch)
        lines.append(_TABLE_ROW.format(name, proto, *("" if x is None else f"{x:.3f}" for x in cells)))

    # one gnuplot block per experiment: a "# name" line, its points, two blank lines
    theta_rows = [row for name, pts in theta_blocks for row in [("#", name), *pts, (), ()]]
    theta_header = "# p theta_S (one block per experiment)"
    write_rows(os.path.join(out_dir, "report_theta.dat"), theta_header, theta_rows, sep=" ")
    write_rows(os.path.join(out_dir, "report_overhead.dat"), "# experiment ratio", overhead_rows, sep=" ")
    write_rows(os.path.join(out_dir, "report.gp"), _GNUPLOT_SCRIPT, [])
    return "\n".join(lines)
