"""Declarative experiment runner: flat-text configs in, CSV artifacts out.

A config is a flat `key: value` file (schema_version 1, '#' comments,
unknown keys rejected).  Running one builds the topology, resolves the
source, executes a seeded batch, applies the requested metrics, and writes
one CSV per metric plus a manifest carrying seed information and a SHA-256
per artifact.  Identical configs produce byte-identical artifacts.

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
from typing import Optional

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
    validate_protocol,
)
from .rng import child_seed
from .routing import discover_route, query_for, route_results_to_csv
from .topology import (
    UNREACHABLE,
    Graph,
    Grid,
    RandomGeometric,
    RegularMesh,
    TopologySpec,
    build_topology,
    grid_index,
    hop_distances,
    save_edgelist,
)

SCHEMA_VERSION = 1
KNOWN_METRICS = frozenset(
    ["profile", "bimodal", "theta", "overhead", "zone_coverage", "route_length", "route_discovery"]
)
_KNOWN_KEYS = frozenset(
    [
        "schema_version",
        "name",
        "topology",
        "source",
        "protocol",
        "runs",
        "base_seed",
        "band",
        "metrics",
        "extinction_threshold",
        "zone_radius",
        "route_distance",
        "route_attempts",
        "route_queries",
        "route_min_distance",
        "p_sweep",
        "sweep_k",
        "out",
    ]
)

_RANDOM_SOURCE_STREAM = 2**48
_ROUTE_QUERY_STREAM = 2**33


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class SourcePlacement:
    kind: str  # left_row | center_row | node | random
    value: int = 0


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    topology: TopologySpec
    source: SourcePlacement
    runs: int
    base_seed: int
    metrics: frozenset[str]
    protocol: Optional[ProtocolSpec] = None
    band: Optional[tuple[int, int]] = None
    extinction_threshold: float = 0.5
    zone_radius: Optional[int] = None
    route_distance: int = 25
    route_attempts: int = 2
    route_queries: int = 1000
    route_min_distance: int = 10
    p_sweep: Optional[tuple[float, ...]] = None
    sweep_k: Optional[int] = None
    out: Optional[str] = None


@dataclass
class ResultSet:
    config: ExperimentConfig
    out_dir: str
    source_node: int
    component_size: int
    excluded_nodes: int
    artifacts: dict[str, str]  # filename -> sha256
    results: dict[str, object] = field(default_factory=dict)

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.out_dir, "manifest.json")


def _parse_topology(text: str) -> TopologySpec:
    parts = text.split()
    try:
        if parts[0] == "grid" and len(parts) == 3:
            return Grid(int(parts[1]), int(parts[2]))
        if parts[0] in ("mesh3", "mesh6") and len(parts) == 3:
            return RegularMesh(int(parts[0][-1]), int(parts[1]), int(parts[2]))
        if parts[0] == "rgg" and len(parts) == 6:
            return RandomGeometric(
                int(parts[1]), float(parts[2]), float(parts[3]), float(parts[4]), int(parts[5])
            )
    except ValueError as exc:
        raise ConfigError(f"bad topology value: {text!r} ({exc})") from None
    raise ConfigError(f"bad topology value: {text!r}")


def _parse_protocol(text: str) -> ProtocolSpec:
    parts = text.split()
    try:
        if parts[0] == "flooding" and len(parts) == 1:
            return FLOODING
        if parts[0] == "gossip1" and len(parts) == 3:
            return Gossip1(float(parts[1]), int(parts[2]))
        if parts[0] == "gossip2" and len(parts) == 5:
            return Gossip2(float(parts[1]), int(parts[2]), float(parts[3]), int(parts[4]))
        if parts[0] == "gossip3" and len(parts) in (4, 5):
            timeout = int(parts[4]) if len(parts) == 5 else 2
            return Gossip3(float(parts[1]), int(parts[2]), int(parts[3]), timeout)
        if parts[0] == "gossip4" and len(parts) == 4:
            return Gossip4(float(parts[1]), int(parts[2]), int(parts[3]))
    except ValueError as exc:
        raise ConfigError(f"bad protocol value: {text!r} ({exc})") from None
    raise ConfigError(f"bad protocol value: {text!r}")


def _parse_source(text: str) -> SourcePlacement:
    parts = text.split()
    if parts[0] in ("left_row", "center_row", "node") and len(parts) == 2:
        return SourcePlacement(parts[0], int(parts[1]))
    if parts[0] == "random" and len(parts) == 1:
        return SourcePlacement("random")
    raise ConfigError(f"bad source value: {text!r}")


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
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value.strip()

    for req in ("schema_version", "topology", "source", "runs", "base_seed"):
        if req not in raw:
            raise ConfigError(f"missing required key {req!r}")
    if int(raw["schema_version"]) != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {raw['schema_version']}")

    metric_set = frozenset(raw.get("metrics", "").split())
    unknown = metric_set - KNOWN_METRICS
    if unknown:
        raise ConfigError(f"unknown metrics: {sorted(unknown)}")

    band = None
    if "band" in raw:
        parts = raw["band"].split()
        if len(parts) != 2:
            raise ConfigError(f"bad band value: {raw['band']!r}")
        band = (int(parts[0]), int(parts[1]))
        if band[0] < 0 or band[0] > band[1]:
            raise ConfigError(f"bad band value: {raw['band']!r}")

    p_sweep = None
    if "p_sweep" in raw:
        values = tuple(float(v) for v in raw["p_sweep"].split())
        if not values:
            raise ConfigError("p_sweep must be non-empty")
        if any(not 0.0 <= v <= 1.0 for v in values):
            raise ConfigError("p_sweep probabilities must be in [0, 1]")
        if list(values) != sorted(values):
            raise ConfigError("p_sweep must be ascending")
        p_sweep = values

    cfg = ExperimentConfig(
        name=raw.get("name", default_name),
        topology=_parse_topology(raw["topology"]),
        source=_parse_source(raw["source"]),
        protocol=_parse_protocol(raw["protocol"]) if "protocol" in raw else None,
        runs=int(raw["runs"]),
        base_seed=int(raw["base_seed"]),
        band=band,
        metrics=metric_set,
        extinction_threshold=float(raw.get("extinction_threshold", 0.5)),
        zone_radius=int(raw["zone_radius"]) if "zone_radius" in raw else None,
        route_distance=int(raw.get("route_distance", 25)),
        route_attempts=int(raw.get("route_attempts", 2)),
        route_queries=int(raw.get("route_queries", 1000)),
        route_min_distance=int(raw.get("route_min_distance", 10)),
        p_sweep=p_sweep,
        sweep_k=int(raw["sweep_k"]) if "sweep_k" in raw else None,
        out=raw.get("out"),
    )
    _validate_config(cfg)
    return cfg


def parse_config(path: str) -> ExperimentConfig:
    with open(path) as f:
        text = f.read()
    default = os.path.splitext(os.path.basename(path))[0]
    return parse_config_text(text, default_name=default)


def _validate_config(cfg: ExperimentConfig) -> None:
    if cfg.runs < 1:
        raise ConfigError("runs must be >= 1")
    if cfg.protocol is not None:
        try:
            validate_protocol(cfg.protocol)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    if not 0.0 < cfg.extinction_threshold < 1.0:
        raise ConfigError("extinction_threshold must be in (0, 1)")
    needs_band = cfg.metrics & {"bimodal", "theta"}
    if needs_band and cfg.band is None:
        raise ConfigError(f"metrics {sorted(needs_band)} require a band")
    if cfg.p_sweep is not None and cfg.sweep_k is None:
        raise ConfigError("p_sweep requires sweep_k")
    if cfg.metrics and cfg.protocol is None and cfg.p_sweep is None:
        raise ConfigError("metrics require a protocol (or a p_sweep)")


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
    # geometric graphs: westmost node / node nearest the region center
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


def _write_manifest(rs: ResultSet, extra: Optional[dict] = None) -> None:
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
    if extra:
        manifest.update(extra)
    with open(rs.manifest_path, "w", newline="\n") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


def run_experiment(cfg: ExperimentConfig, out_dir: Optional[str] = None, workers: int = 1) -> ResultSet:
    """Execute one experiment and write its artifacts."""
    if cfg.p_sweep is not None:
        raise ConfigError("config declares p_sweep; use sweep_probability")
    if cfg.protocol is None:
        raise ConfigError("run requires a protocol")
    out_dir = out_dir or cfg.out or cfg.name
    os.makedirs(out_dir, exist_ok=True)

    g = build_topology(cfg.topology)
    source = resolve_source(cfg, g)
    dmap = hop_distances(g, source)
    component = int((dmap.dist != UNREACHABLE).sum())
    excluded = g.n - component
    if "theta" in cfg.metrics:
        _check_theta_placement(cfg, g, dmap)

    zone_radius = cfg.zone_radius
    if zone_radius is None and isinstance(cfg.protocol, Gossip4):
        zone_radius = cfg.protocol.zone_radius
    if "zone_coverage" in cfg.metrics and zone_radius is None:
        raise ConfigError("zone_coverage metric requires zone_radius (or a gossip4 protocol)")

    accs: dict[str, object] = {}
    if "profile" in cfg.metrics:
        accs["profile"] = M.ProfileAccumulator(dmap)
    if cfg.metrics & {"bimodal", "theta"}:
        accs["coverage"] = M.CoverageAccumulator(dmap, cfg.band)
    if "overhead" in cfg.metrics:
        accs["overhead"] = M.OverheadAccumulator(component, g)
    if "zone_coverage" in cfg.metrics:
        accs["zone"] = M.ZoneCoverageAccumulator(g, dmap, zone_radius)
    if "route_length" in cfg.metrics:
        accs["route_length"] = M.RouteLengthAccumulator(dmap, cfg.route_min_distance)

    if accs:
        for trace in iter_batch(g, source, cfg.protocol, cfg.runs, cfg.base_seed, workers=workers):
            for acc in accs.values():
                acc.add(trace)

    rs = ResultSet(
        config=cfg,
        out_dir=out_dir,
        source_node=source,
        component_size=component,
        excluded_nodes=excluded,
        artifacts={},
    )

    def _emit(name: str, writer) -> None:
        path = os.path.join(out_dir, name)
        writer(path)
        rs.artifacts[name] = _sha256(path)

    if "profile" in cfg.metrics:
        profile = accs["profile"].result()
        rs.results["profile"] = profile
        _emit("profile.csv", profile.to_csv)
    if "bimodal" in cfg.metrics:
        summary = accs["coverage"].summary()
        rs.results["bimodal"] = summary
        _emit("bimodal.csv", summary.to_csv)
    if "theta" in cfg.metrics:
        est = accs["coverage"].theta(cfg.extinction_threshold)
        rs.results["theta"] = est
        p = getattr(cfg.protocol, "p", getattr(cfg.protocol, "p1", 1.0))
        _emit("theta.csv", lambda path: M.theta_rows_to_csv(path, [(p, est)]))
    if "overhead" in cfg.metrics:
        report = accs["overhead"].result()
        rs.results["overhead"] = report
        le2 = "" if report.timeout_L_le2 is None else repr(report.timeout_L_le2)
        row = (
            f"{report.mean_broadcasts!r},{report.ratio!r},{report.zone_unicasts!r},{component},"
            f"{report.timeout_fraction!r},{report.frac_L_ge1!r},{le2}"
        )
        header = "mean_broadcasts,ratio,zone_unicasts,baseline,timeout_fraction,frac_L_ge1,timeout_L_le2"
        _emit("overhead.csv", lambda path: M._write_csv(path, header, [row]))
    if "zone_coverage" in cfg.metrics:
        zprofile = accs["zone"].result()
        rs.results["zone_coverage"] = zprofile
        _emit("zone_coverage.csv", zprofile.to_csv)
    if "route_length" in cfg.metrics:
        acc = accs["route_length"]
        rs.results["route_length"] = acc.mean_ratio()
        row = f"{acc.mean_ratio()!r},{acc.count},{cfg.route_min_distance}"
        _emit("route_length.csv", lambda path: M._write_csv(path, "mean_ratio,samples,min_distance", [row]))
    if "route_discovery" in cfg.metrics:
        rows, summary = _route_discovery(cfg, g, dmap, source)
        rs.results["route_discovery"] = summary
        _emit("route_discovery.csv", lambda path: route_results_to_csv(path, rows))
        row = (
            f"{summary['queries']},{summary['success_rate']!r},"
            f"{summary['one_attempt_rate']!r},{summary['mean_broadcasts']!r}"
        )
        header = "queries,success_rate,one_attempt_rate,mean_broadcasts"
        _emit("route_summary.csv", lambda path: M._write_csv(path, header, [row]))

    _write_manifest(rs)
    return rs


def _route_discovery(cfg: ExperimentConfig, g: Graph, dmap, source: int):
    dests = np.flatnonzero(dmap.dist == cfg.route_distance)
    if not dests.size:
        raise ConfigError(f"no destinations at distance {cfg.route_distance}")
    rows = []
    found = one_shot = 0
    broadcasts = 0
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
    return rows, summary


def sweep_probability(cfg: ExperimentConfig, out_dir: Optional[str] = None, workers: int = 1) -> ResultSet:
    """Theta estimate per probability in the sweep list; emits the curve CSV."""
    if cfg.p_sweep is None or cfg.sweep_k is None:
        raise ConfigError("sweep requires p_sweep and sweep_k")
    if cfg.band is None:
        raise ConfigError("sweep requires a band")
    out_dir = out_dir or cfg.out or cfg.name
    os.makedirs(out_dir, exist_ok=True)

    g = build_topology(cfg.topology)
    source = resolve_source(cfg, g)
    dmap = hop_distances(g, source)
    component = int((dmap.dist != UNREACHABLE).sum())
    _check_theta_placement(cfg, g, dmap)

    rows = []
    for j, p in enumerate(cfg.p_sweep):
        acc = M.CoverageAccumulator(dmap, cfg.band)
        spec = Gossip1(p, cfg.sweep_k)
        batch_seed = child_seed(cfg.base_seed, j)
        acc.consume(iter_batch(g, source, spec, cfg.runs, batch_seed, workers=workers))
        rows.append((p, acc.theta(cfg.extinction_threshold)))

    rs = ResultSet(
        config=cfg,
        out_dir=out_dir,
        source_node=source,
        component_size=component,
        excluded_nodes=g.n - component,
        artifacts={},
        results={"theta_curve": rows},
    )
    path = os.path.join(out_dir, "theta_curve.csv")
    M.theta_rows_to_csv(path, rows)
    rs.artifacts["theta_curve.csv"] = _sha256(path)
    _write_manifest(rs)
    return rs


def write_topology(cfg: ExperimentConfig, path_or_file) -> None:
    save_edgelist(build_topology(cfg.topology), path_or_file)


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


def _read_rows(result_dir: str, name: str) -> list[dict]:
    """Rows of a result CSV keyed by its header; none if the file is absent."""
    path = os.path.join(result_dir, name)
    if not os.path.exists(path):
        return []
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def report(result_dirs: list[str], out_dir: str = ".") -> str:
    """Consolidated table across experiment directories, plus gnuplot data files."""
    if not result_dirs:
        raise ValueError("no result directories given")
    os.makedirs(out_dir, exist_ok=True)
    lines = [f"{'experiment':<24} {'protocol':<22} {'ratio':>7} {'theta_S':>8} {'<10%':>6} {'>80%':>6} {'>90%':>6}"]
    theta_blocks = []
    overhead_rows = []
    for d in result_dirs:
        manifest = load_manifest(d)
        name = manifest["config"]["name"]
        proto = manifest["config"].get("protocol") or "sweep"
        ratio = theta_s = b10 = a80 = a90 = ""
        over = _read_rows(d, "overhead.csv")
        if over:
            ratio = f"{float(over[0]['ratio']):.3f}"
            overhead_rows.append((name, float(ratio)))
        for theta_name in ("theta.csv", "theta_curve.csv"):
            pts = [(float(r["p"]), float(r["theta_S"])) for r in _read_rows(d, theta_name)]
            if pts:
                theta_s = f"{pts[-1][1]:.3f}"
                theta_blocks.append((name, pts))
        tails = {r["bin_lo"]: f"{float(r['run_fraction']):.3f}" for r in _read_rows(d, "bimodal.csv")}
        b10, a80, a90 = (tails.get(key, "") for key in ("below_10pct", "above_80pct", "above_90pct"))
        lines.append(f"{name:<24} {proto:<22} {ratio:>7} {theta_s:>8} {b10:>6} {a80:>6} {a90:>6}")

    with open(os.path.join(out_dir, "report_theta.dat"), "w", newline="\n") as f:
        f.write("# p theta_S (one block per experiment)\n")
        for name, pts in theta_blocks:
            f.write(f'# {name}\n')
            for p, th in pts:
                f.write(f"{p!r} {th!r}\n")
            f.write("\n\n")
    with open(os.path.join(out_dir, "report_overhead.dat"), "w", newline="\n") as f:
        f.write("# experiment ratio\n")
        for name, ratio in overhead_rows:
            f.write(f"{name} {ratio!r}\n")
    with open(os.path.join(out_dir, "report.gp"), "w", newline="\n") as f:
        f.write(
            'set xlabel "gossip probability p"\n'
            'set ylabel "theta_S"\n'
            'set yrange [0:1.05]\n'
            'plot for [i=0:*] "report_theta.dat" index i using 1:2 '
            'with linespoints title sprintf("series %d", i)\n'
        )
    return "\n".join(lines)
