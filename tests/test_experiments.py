import glob
import hashlib
import json
import os
from dataclasses import replace

import numpy as np
import pytest

from gossipsim import Gossip1, Gossip3, Grid, RandomGeometric, build_topology, load_edgelist
from gossipsim.cli import main as cli_main
from gossipsim.experiments import (
    ConfigError,
    ExperimentConfig,
    SourcePlacement,
    boundary_mask,
    load_manifest,
    parse_config,
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
    # every key left out must take the ExperimentConfig default
    required = "schema_version: 1\ntopology: grid 8 12\nsource: left_row 4\nruns: 40\nbase_seed: 99\n"
    bare = ExperimentConfig(
        name="experiment", topology=Grid(8, 12), source=SourcePlacement("left_row", 4), runs=40, base_seed=99
    )
    assert parse_config_text(required) == bare
    assert parse_config_text(TINY) == replace(
        bare,
        name="tiny",
        protocol=Gossip1(0.7, 2),
        band=(2, 8),
        metrics=frozenset({"bimodal", "profile", "overhead"}),
    )
    # gossip3's timeout is optional and defaults to the dataclass's
    cfg = parse_config_text(TINY.replace("gossip1 0.7 2", "gossip3 0.6 1 1"))
    assert cfg.protocol == Gossip3(0.6, 1, 1)


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
        ("metrics: bimodal profile overhead", "metrics: zone_coverage"),  # no zone radius
        # a sweep runs gossip1(p, sweep_k), computes theta only, and needs a band
        ("metrics: bimodal profile overhead", "metrics: theta\np_sweep: 0.5 0.6\nsweep_k: 2"),
        ("protocol: gossip1 0.7 2", "p_sweep: 0.5 0.6\nsweep_k: 2"),
        ("runs: 40", "runs: 40\nsweep_k: 2"),
        ("protocol: gossip1 0.7 2\nruns: 40\nbase_seed: 99\nband: 2 8\nmetrics: bimodal profile overhead",
         "p_sweep: 0.5 0.6\nsweep_k: 2\nruns: 40\nbase_seed: 99"),
        # route discovery needs at least one query and one attempt per query
        ("runs: 40", "runs: 40\nroute_queries: 0"),
        ("runs: 40", "runs: 40\nroute_queries: -3"),
        ("runs: 40", "runs: 40\nroute_attempts: 0"),
        # keys no longer in the schema
        ("runs: 40", "runs: 40\nzone_radius: 3"),
        ("runs: 40", "runs: 40\nout: x"),
        # a route destination is at least one hop away
        ("runs: 40", "runs: 40\nroute_distance: 0"),
        ("runs: 40", "runs: 40\nroute_distance: -1"),
        # empty values
        ("topology: grid 8 12", "topology:"),
        ("source: left_row 4", "source:"),
        ("protocol: gossip1 0.7 2", "protocol:"),
    ],
)
def test_bad_configs_rejected(mutation):
    old, new = mutation
    assert old in TINY
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


def test_theta_requires_interior_source(tmp_path):
    cfg = parse_config_text(
        TINY.replace("metrics: bimodal profile overhead", "metrics: theta")
    )
    # source on the left boundary: band max 8 >= boundary distance 0
    with pytest.raises(ConfigError):
        run_experiment(cfg, out_dir=str(tmp_path / "out"))
    assert not (tmp_path / "out").exists()


def test_sweep(tmp_path):
    cfg = parse_config_text(SWEEP)
    rs = sweep_probability(cfg, out_dir=str(tmp_path / "sweep"))
    rows = rs.results["theta_curve"]
    assert [p for p, _ in rows] == [0.55, 0.65, 0.75]
    assert rows[0][1].theta_S <= rows[2][1].theta_S
    text = (tmp_path / "sweep" / "theta_curve.csv").read_text()
    assert text.splitlines()[0] == "p,theta_S,ci_lo,ci_hi,theta_R"
    assert len(text.splitlines()) == 4


def test_sweep_requires_sweep_fields(tmp_path):
    cfg = parse_config_text(TINY)
    with pytest.raises(ConfigError):
        sweep_probability(cfg, out_dir=str(tmp_path / "out"))
    assert not (tmp_path / "out").exists()
    # run_experiment hands a sweep config to sweep_probability
    cfg2 = parse_config_text(SWEEP)
    a = run_experiment(cfg2, out_dir=str(tmp_path / "run"))
    b = sweep_probability(cfg2, out_dir=str(tmp_path / "sweep"))
    assert a.artifacts == b.artifacts and set(a.artifacts) == {"theta_curve.csv"}
    assert (tmp_path / "run" / "manifest.json").read_bytes() == (tmp_path / "sweep" / "manifest.json").read_bytes()


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
    with pytest.raises(ConfigError):  # no node 30 hops from the source
        run_experiment(replace(cfg, route_distance=30), out_dir=str(tmp_path / "none"))
    assert not (tmp_path / "none").exists()


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
        "route_summary.csv": "mean_broadcasts,success_rate,one_attempt_rate,queries\n310.5,0.8,0.5,16\n",
        "route_length.csv": "samples,min_distance,mean_ratio\n40,10,1.07\n",
    }
    artifacts = {}
    for name, text in files.items():
        (d / name).write_text(text)
        artifacts[name] = hashlib.sha256(text.encode()).hexdigest()
    manifest = {"config": {"name": "shuffled", "protocol": "gossip1(0.6,1)"}, "artifacts": artifacts}
    (d / "manifest.json").write_text(json.dumps(manifest))
    # a profile-only run fills none of the table's columns
    p = tmp_path / "profile_only"
    p.mkdir()
    text = "distance,count,fraction,stderr\n0,1,1.0,0.0\n"
    (p / "profile.csv").write_text(text)
    artifacts = {"profile.csv": hashlib.sha256(text.encode()).hexdigest()}
    manifest = {"config": {"name": "profile_only", "protocol": "gossip1(0.6,1)"}, "artifacts": artifacts}
    (p / "manifest.json").write_text(json.dumps(manifest))
    table = report([str(d), str(p)], out_dir=str(tmp_path))
    header = table.splitlines()[0].split()
    assert header[-2:] == ["route", "stretch"]
    row = [ln for ln in table.splitlines() if ln.startswith("shuffled")][0]
    assert row.split()[2:] == ["0.400", "0.750", "0.125", "0.250", "0.375", "0.800", "1.070"]
    row = [ln for ln in table.splitlines() if ln.startswith("profile_only")][0]
    assert row.split() == ["profile_only", "gossip1(0.6,1)"]
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


def test_cli_empty_value_is_one_json_line(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(TINY.replace("topology: grid 8 12", "topology:"))
    rc = cli_main(["run", str(bad), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 1
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert set(json.loads(lines[0])) == {"error"}
    assert not (tmp_path / "out").exists()


def test_cli_sweep_and_report(tmp_path, capsys):
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(SWEEP)
    out = tmp_path / "sw"
    assert cli_main(["sweep", str(cfg_path), "--out", str(out)]) == 0
    assert (out / "theta_curve.csv").exists()
    assert cli_main(["run", str(cfg_path), "--out", str(tmp_path / "run")]) == 0
    assert (tmp_path / "run" / "theta_curve.csv").read_bytes() == (out / "theta_curve.csv").read_bytes()
    assert cli_main(["report", str(out), "--out", str(tmp_path)]) == 0
    capsys.readouterr()


# SHA-256 of every file each canned config writes with runs=3 and
# route_queries=5, recorded before the metric table replaced the if-chains
# in run_experiment; any change to an artifact's bytes or the manifest
# shows here.
CANNED_DIGESTS = {
    "grid_p65_bimodal/bimodal.csv": "3735f76738aebf1b4b661a0943a38b9b92c7ec539228dbabc2d8c02dc0fe02b0",
    "grid_p65_bimodal/manifest.json": "6186adca9a412d5fc856aac53481445493fea490b426c8f32f89c04103be6e3c",
    "grid_p65_bimodal/overhead.csv": "2560ddb22c7e4d8f11bb784dbad18e6c93704e8b52e37c8cdde309147ff14f5b",
    "grid_p65_bimodal/profile.csv": "73e5855fb9aa05301b70fa025f129d254b098cb108a38a90f1419ed96ce77020",
    "grid_p72_profile/manifest.json": "caaf0a9f68e62aecb6cef6b3f792cfe52f17c608a215a62c4f7295e8a707ff31",
    "grid_p72_profile/profile.csv": "261932d6582ff0501a7eba2f629dca9e259141787622ea06fed55be30ef818a1",
    "mesh3_p65/bimodal.csv": "56b47f547381edac5d65a36e245d9468947866cf3c943f60f98cd9d9a393d78d",
    "mesh3_p65/manifest.json": "8abc21692d59e5b39acc23711e73f18521fc7388ac9e3604bedcf32d4808c12c",
    "mesh3_p86/bimodal.csv": "3735f76738aebf1b4b661a0943a38b9b92c7ec539228dbabc2d8c02dc0fe02b0",
    "mesh3_p86/manifest.json": "30760784da5bff8b2657e13daf98da955d1716206ee1ee647c826e6e9afb9773",
    "mesh6_p65/bimodal.csv": "3735f76738aebf1b4b661a0943a38b9b92c7ec539228dbabc2d8c02dc0fe02b0",
    "mesh6_p65/manifest.json": "a10aebf4acfae1c1590c3ddaea299a09314268e9f38f201eb1e389bf8f0e8464",
    "rnd8_bimodal/bimodal.csv": "b37a131236f26bd1c7c4d88696822be3fe2d42fd2fe0bf0606f88a64956368ce",
    "rnd8_bimodal/manifest.json": "c26d3b9a225689a1dbdd2db4ca4830b79ac8361118b28286a8c1b5a5ef979d91",
    "rnd8_bimodal/profile.csv": "13dfd9c79a9735dc4a7c82dcc0568b1e234b2b36545dbcb5d5c4e823fa2ef68a",
    "rnd8_gossip2/manifest.json": "ac2d9b1e63c6eedc7b859add39ecb79f7ab2a7c4256fa54cbfd8fdb5cc13490a",
    "rnd8_gossip2/overhead.csv": "d4b60882f0c29a8b07a39ee48700b43724d453206bbcb72b6d235f6c85ec7380",
    "rnd8_gossip2/profile.csv": "518c8ab537f60757bbfd405cb4675db0a9474839e09ae1a7f1b09deea56d2902",
    "rnd8_gossip3/manifest.json": "d04ad8f4bfe11e1c433fc6bb97b8b3f1aeadf189b6f5df10289567fd97c9951f",
    "rnd8_gossip3/overhead.csv": "fe157fcfcd287e9c1f68649b42ee36657b96f801616d7d4fa067b46be74394e3",
    "rnd8_gossip3/profile.csv": "25512fed92a4d2f69413bab406a43b36c47ee47f7086d464b720beb90f82f31f",
    "rnd8_p75/manifest.json": "625ccf48bb591301971339e2979540949e3f1cd9d1bd836fc7e1b022f46b1871",
    "rnd8_p75/overhead.csv": "0d3984d6f7bb7485d0ca7fc97484ff9f63572a234f82d69b6c09f1ff0bbe173a",
    "rnd8_p75/profile.csv": "266c22fe5840f8131a93a6f7ffdb571875899e9b0da106f285b7aaea58802810",
    "rnd8_p80/manifest.json": "51637f0021065676bbc6ab20651b918f15dbdde7bf06f240a504f93588dc6797",
    "rnd8_p80/overhead.csv": "5cb63d91b544620259d9f86aef7a16bd4be6c06b3ab643b51bd8b54f03b2764b",
    "rnd8_p80/profile.csv": "26e8b29fdb976626e5ccccb3196631500372ef9b9aa6665e1377c33e0ba3ca4c",
    "rnd8_retry/manifest.json": "2aab0e84104fc594b8c273d557cd0a4ab7ef3835cac33f4cec4064757b03d9b8",
    "rnd8_retry/route_discovery.csv": "9e052c1e50d629449a3e693083f2de5d6444b8429fe2165a51b1caac1d82e8ef",
    "rnd8_retry/route_summary.csv": "ff9ba63459fe16ef7b1d998e1718560caa4c923e4ab6a809d5f464560dc1a640",
    "rnd8_routelen/manifest.json": "f5154474d7ecd011acfbc3c996149425b926e4a0a318f1419ff3a304ce3039ba",
    "rnd8_routelen/profile.csv": "6d80b515b17a96ae51548daeba39afbe479c536f6d1c7333f71eeec9de23f918",
    "rnd8_routelen/route_length.csv": "0da1a9bdff5950d5d129ff2f9a9ce56045df539a67846936e5a6a465bff24995",
    "theta_k0_p65/manifest.json": "ada55a825e5d66fe84f77fe3ec0b35e88419310e11476df33af3a475b96e4fb9",
    "theta_k0_p65/theta.csv": "8373f4d00674ce4e8db3d72a1148afba9e6dd5214afa897647fe9d13afbca59f",
    "theta_k0_p70/manifest.json": "601725b5b095b27c809bd53ec41fa9c62d797c9d695cd516a23240acbfb998a7",
    "theta_k0_p70/theta.csv": "055bf35a2ec8c2fa64ed76f636c0c1fee13c90b8c92cd17ae571094f559c9db8",
    "theta_k1_p65/manifest.json": "253219aa8d940fc4aca0396a1b9ebb9fb51070578be2412d0c782860911a03f5",
    "theta_k1_p65/theta.csv": "8373f4d00674ce4e8db3d72a1148afba9e6dd5214afa897647fe9d13afbca59f",
    "theta_k1_p70/manifest.json": "b0932f6425908997c4e4ee7cb93d5a22327c225de5c8127460488caa1700a5e0",
    "theta_k1_p70/theta.csv": "055bf35a2ec8c2fa64ed76f636c0c1fee13c90b8c92cd17ae571094f559c9db8",
    "theta_k2_p65/manifest.json": "cee759229aac0b2051f7a38be6f1c516e5d3b54281122bebebc402900c915ef5",
    "theta_k2_p65/theta.csv": "1fa5a411b8214d936b0e26f21833835e3762509f42f2da5c9936b761c02bd86b",
    "theta_k5_p65/manifest.json": "021b0993df26ca9462ea2124645fb2ef0cc3ed37e49aa9cc5b7483ffea49f8f9",
    "theta_k5_p65/theta.csv": "ad77192320ac00a707e1c828d94e041e9a18f1d8c415e3906afa94659de5468c",
    "theta_sweep_300/manifest.json": "cae6ea612d6d29fc9a7c34a159898b343269a7c0860e3ba0dac8e70fffcfec72",
    "theta_sweep_300/theta_curve.csv": "596b721b75cf3b9050b687f6a48514156ac0925f873b7dd0bc243490091b5d6a",
    "zones100/manifest.json": "156552f61ded541e6de674bf2e1d96ca339d071c91317eca8a14e8917789f18d",
    "zones100/overhead.csv": "b7c1b6c9d57e33b63c786c0bee6469a1b6556a5845ba53e5e3955af0cfe89ea8",
    "zones100/profile.csv": "46616b088649512f53f0c3596901c3157a3c989b1ed3e6ced1548117f8b93a4a",
    "zones100/zone_coverage.csv": "9efa65ae6b817ec61b7c13b9c3904aa04dd445c6216f146f5c4eb3d98f44ca70",
}


def test_canned_artifacts_match_pinned_digests(tmp_path):
    config_dir = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
    got = {}
    for path in sorted(glob.glob(os.path.join(config_dir, "*.cfg"))):
        cfg = replace(parse_config(path), runs=3, route_queries=5)
        out = tmp_path / cfg.name
        run_experiment(cfg, out_dir=str(out))
        for f in sorted(out.iterdir()):
            got[f"{cfg.name}/{f.name}"] = hashlib.sha256(f.read_bytes()).hexdigest()
    assert got == CANNED_DIGESTS
