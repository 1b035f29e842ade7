import hashlib
import json
import os

import numpy as np
import pytest

from gossipsim import Grid, RandomGeometric, build_topology, load_edgelist
from gossipsim.cli import main as cli_main
from gossipsim.experiments import (
    ConfigError,
    ExperimentConfig,
    SourcePlacement,
    boundary_mask,
    load_manifest,
    parse_config_text,
    report,
    resolve_source,
    run_experiment,
    sweep_probability,
)

TINY = """
schema_version: 1
name: tiny
topology: grid 8 12
source: left_row 4
protocol: gossip1 0.7 2
runs: 40
base_seed: 99
band: 2 8
metrics: bimodal profile overhead
"""

SWEEP = """
schema_version: 1
name: tiny_sweep
topology: grid 40 40
source: center_row 20
p_sweep: 0.55 0.65 0.75
sweep_k: 2
runs: 30
base_seed: 7
band: 3 8
metrics: theta
"""


def test_parse_roundtrip():
    cfg = parse_config_text(TINY)
    assert cfg.name == "tiny"
    assert cfg.topology == Grid(8, 12)
    assert cfg.source == SourcePlacement("left_row", 4)
    assert cfg.band == (2, 8)
    assert cfg.metrics == {"bimodal", "profile", "overhead"}


@pytest.mark.parametrize(
    "mutation",
    [
        ("runs: 40", "runs: 0"),
        ("protocol: gossip1 0.7 2", "protocol: gossip1 1.7 2"),
        ("protocol: gossip1 0.7 2", "protocol: gossip9 0.7 2"),
        ("band: 2 8", "band: 8 2"),
        ("metrics: bimodal profile overhead", "metrics: bimodal bogus"),
        ("topology: grid 8 12", "topology: grid 8"),
        ("schema_version: 1", "schema_version: 2"),
        ("name: tiny", "unknown_key: 3"),
    ],
)
def test_bad_configs_rejected(mutation):
    old, new = mutation
    with pytest.raises(ConfigError):
        parse_config_text(TINY.replace(old, new))


def test_missing_required_key():
    text = "\n".join(ln for ln in TINY.splitlines() if not ln.startswith("topology"))
    with pytest.raises(ConfigError):
        parse_config_text(text)


def test_band_required_for_bimodal():
    text = "\n".join(ln for ln in TINY.splitlines() if not ln.startswith("band"))
    with pytest.raises(ConfigError):
        parse_config_text(text)


def test_run_writes_expected_artifacts(tmp_path):
    cfg = parse_config_text(TINY)
    rs = run_experiment(cfg, out_dir=str(tmp_path / "out"))
    assert sorted(rs.artifacts) == ["bimodal.csv", "overhead.csv", "profile.csv"]
    manifest = load_manifest(rs.out_dir)
    assert manifest["config"]["name"] == "tiny"
    assert manifest["component_size"] == 96
    assert set(manifest["artifacts"]) == set(rs.artifacts)


def test_rerun_is_byte_identical(tmp_path):
    cfg = parse_config_text(TINY)
    a = run_experiment(cfg, out_dir=str(tmp_path / "a"))
    b = run_experiment(cfg, out_dir=str(tmp_path / "b"))
    assert a.artifacts == b.artifacts
    for name in a.artifacts:
        pa = (tmp_path / "a" / name).read_bytes()
        pb = (tmp_path / "b" / name).read_bytes()
        assert pa == pb


def test_seed_changes_artifacts(tmp_path):
    from dataclasses import replace

    cfg = parse_config_text(TINY)
    a = run_experiment(cfg, out_dir=str(tmp_path / "a"))
    b = run_experiment(replace(cfg, base_seed=100), out_dir=str(tmp_path / "b"))
    assert a.artifacts != b.artifacts


def test_manifest_detects_tampering(tmp_path):
    cfg = parse_config_text(TINY)
    rs = run_experiment(cfg, out_dir=str(tmp_path / "out"))
    target = tmp_path / "out" / "profile.csv"
    target.write_text(target.read_text() + "tampered\n")
    with pytest.raises(ValueError):
        load_manifest(rs.out_dir)


def test_theta_requires_interior_source():
    cfg = parse_config_text(
        TINY.replace("metrics: bimodal profile overhead", "metrics: theta")
    )
    # source on the left boundary: band max 8 >= boundary distance 0
    with pytest.raises(ConfigError):
        run_experiment(cfg, out_dir="/tmp/should_not_exist_gossipsim")


def test_sweep(tmp_path):
    cfg = parse_config_text(SWEEP)
    rs = sweep_probability(cfg, out_dir=str(tmp_path / "sweep"))
    rows = rs.results["theta_curve"]
    assert [p for p, _ in rows] == [0.55, 0.65, 0.75]
    assert rows[0][1].theta_S <= rows[2][1].theta_S
    text = (tmp_path / "sweep" / "theta_curve.csv").read_text()
    assert text.splitlines()[0] == "p,theta_S,ci_lo,ci_hi,theta_R"
    assert len(text.splitlines()) == 4


def test_sweep_requires_sweep_fields():
    cfg = parse_config_text(TINY)
    with pytest.raises(ConfigError):
        sweep_probability(cfg, out_dir="/tmp/nope_gossipsim")
    cfg2 = parse_config_text(SWEEP)
    with pytest.raises(ConfigError):
        run_experiment(cfg2, out_dir="/tmp/nope_gossipsim")


def test_workers_yield_identical_artifacts(tmp_path):
    cfg = parse_config_text(TINY)
    a = run_experiment(cfg, out_dir=str(tmp_path / "w1"), workers=1)
    b = run_experiment(cfg, out_dir=str(tmp_path / "w2"), workers=2)
    assert a.artifacts == b.artifacts


def test_source_resolution_graph_positions():
    cfg = parse_config_text(TINY)
    g = build_topology(cfg.topology)
    assert resolve_source(cfg, g) == 4 * 12
    cfg_c = parse_config_text(TINY.replace("left_row 4", "center_row 4"))
    assert resolve_source(cfg_c, g) == 4 * 12 + 6
    cfg_n = parse_config_text(TINY.replace("left_row 4", "node 17"))
    assert resolve_source(cfg_n, g) == 17
    cfg_r = parse_config_text(TINY.replace("left_row 4", "random"))
    s = resolve_source(cfg_r, g)
    assert 0 <= s < g.n
    assert resolve_source(cfg_r, g) == s  # deterministic


def test_source_resolution_rgg_westmost():
    cfg = parse_config_text(
        TINY.replace("topology: grid 8 12", "topology: rgg 60 1000 600 200 3")
    )
    g = build_topology(cfg.topology)
    assert resolve_source(cfg, g) == int(np.argmin(g.coords[:, 0]))


def test_boundary_mask_lattice_and_rgg():
    cfg = parse_config_text(TINY)
    g = build_topology(cfg.topology)
    mask = boundary_mask(cfg.topology, g)
    assert mask[0] and mask[11] and mask[95]
    assert not mask[13]  # (1, 1) interior
    spec = RandomGeometric(50, 1000, 600, 200, 3)
    g2 = build_topology(spec)
    mask2 = boundary_mask(spec, g2)
    inner = (
        (g2.coords[:, 0] >= 200)
        & (g2.coords[:, 0] <= 800)
        & (g2.coords[:, 1] >= 200)
        & (g2.coords[:, 1] <= 400)
    )
    assert not mask2[inner].any()


def test_route_metrics_config(tmp_path):
    text = """
schema_version: 1
name: route_tiny
topology: grid 8 12
source: left_row 4
protocol: gossip1 0.8 2
runs: 30
base_seed: 3
route_distance: 6
route_attempts: 2
route_queries: 40
route_min_distance: 3
metrics: route_discovery route_length
"""
    cfg = parse_config_text(text)
    rs = run_experiment(cfg, out_dir=str(tmp_path / "routes"))
    assert sorted(rs.artifacts) == ["route_discovery.csv", "route_length.csv", "route_summary.csv"]
    summary = rs.results["route_discovery"]
    assert summary["queries"] == 40
    assert 0.0 <= summary["success_rate"] <= 1.0
    assert rs.results["route_length"] >= 1.0


def test_report_flooding_ratio_one(tmp_path):
    text = TINY.replace("protocol: gossip1 0.7 2", "protocol: flooding").replace(
        "name: tiny", "name: flood"
    )
    cfg = parse_config_text(text)
    run_experiment(cfg, out_dir=str(tmp_path / "flood"))
    table = report([str(tmp_path / "flood")], out_dir=str(tmp_path))
    row = [ln for ln in table.splitlines() if ln.startswith("flood")][0]
    assert "1.000" in row
    assert (tmp_path / "report_theta.dat").exists()
    assert (tmp_path / "report_overhead.dat").exists()
    assert (tmp_path / "report.gp").exists()


def test_report_reads_columns_by_header(tmp_path):
    # columns in an order no writer uses: report must go by the header
    d = tmp_path / "shuffled"
    d.mkdir()
    files = {
        "overhead.csv": "baseline,zone_unicasts,mean_broadcasts,ratio\n100,0.0,40.0,0.4\n",
        "theta_curve.csv": "theta_R,theta_S,ci_lo,ci_hi,p\n,0.25,0.2,0.3,0.6\n0.9,0.75,0.7,0.8,0.7\n",
        "bimodal.csv": (
            "run_fraction,bin_hi,bin_lo\n0.5,0.1,0.0\n"
            "0.125,,below_10pct\n0.25,,above_80pct\n0.375,,above_90pct\n"
        ),
    }
    artifacts = {}
    for name, text in files.items():
        (d / name).write_text(text)
        artifacts[name] = hashlib.sha256(text.encode()).hexdigest()
    manifest = {"config": {"name": "shuffled", "protocol": "gossip1(0.6,1)"}, "artifacts": artifacts}
    (d / "manifest.json").write_text(json.dumps(manifest))
    table = report([str(d)], out_dir=str(tmp_path))
    row = [ln for ln in table.splitlines() if ln.startswith("shuffled")][0]
    assert row.split()[2:] == ["0.400", "0.750", "0.125", "0.250", "0.375"]
    assert (tmp_path / "report_overhead.dat").read_text().splitlines()[1] == "shuffled 0.4"
    assert "0.6 0.25\n0.7 0.75\n" in (tmp_path / "report_theta.dat").read_text()


def test_report_errors(tmp_path):
    with pytest.raises(ValueError):
        report([], out_dir=str(tmp_path))
    with pytest.raises(FileNotFoundError):
        report([str(tmp_path / "missing")], out_dir=str(tmp_path))


def test_cli_run_and_topo(tmp_path, capsys):
    cfg_path = tmp_path / "tiny.cfg"
    cfg_path.write_text(TINY)
    out = tmp_path / "results"
    assert cli_main(["run", str(cfg_path), "--out", str(out)]) == 0
    assert (out / "manifest.json").exists()
    topo_path = tmp_path / "g.edges"
    assert cli_main(["topo", str(cfg_path), "--out", str(topo_path)]) == 0
    g = load_edgelist(str(topo_path))
    assert g.n == 96
    capsys.readouterr()


def test_cli_overrides(tmp_path, capsys):
    cfg_path = tmp_path / "tiny.cfg"
    cfg_path.write_text(TINY)
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert cli_main(["run", str(cfg_path), "--out", str(a), "--runs", "10"]) == 0
    assert cli_main(["run", str(cfg_path), "--out", str(b), "--runs", "10", "--seed", "123"]) == 0
    ma = json.loads((a / "manifest.json").read_text())
    mb = json.loads((b / "manifest.json").read_text())
    assert ma["config"]["runs"] == 10
    assert ma["hash"] != mb["hash"]
    capsys.readouterr()


def test_cli_error_is_machine_readable(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("schema_version: 1\nbogus: 1\n")
    rc = cli_main(["run", str(bad)])
    captured = capsys.readouterr()
    assert rc != 0
    err = json.loads(captured.err.strip())
    assert "error" in err


def test_cli_sweep_and_report(tmp_path, capsys):
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(SWEEP)
    out = tmp_path / "sw"
    assert cli_main(["sweep", str(cfg_path), "--out", str(out)]) == 0
    assert (out / "theta_curve.csv").exists()
    assert cli_main(["report", str(out), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
