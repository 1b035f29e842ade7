import hashlib
import io

from gossipsim import Grid, RandomGeometric, build_topology
from gossipsim.experiments import parse_config_text, report, run_experiment, sweep_probability
from gossipsim.protocols import Gossip4
from gossipsim.routing import discover_route, query_for, route_results_to_csv
from gossipsim.topology import hop_distances, save_edgelist

_SMALL_RGG = RandomGeometric(150, 2000.0, 600.0, 150.0, 5)

_OVERHEAD = """
schema_version: 1
name: pin_overhead
topology: grid 8 12
source: left_row 4
protocol: gossip3 0.6 1 1 2
runs: 12
base_seed: 3
band: 2 8
metrics: bimodal overhead
"""

_THETA = """
schema_version: 1
name: pin_theta
topology: grid 30 30
source: center_row 15
protocol: gossip1 0.65 1
runs: 10
base_seed: 4
band: 2 6
metrics: theta
"""

_SWEEP = """
schema_version: 1
name: pin_sweep
topology: grid 30 30
source: center_row 15
p_sweep: 0.6 0.7
sweep_k: 1
runs: 8
base_seed: 5
band: 2 6
metrics: theta
"""


def _digest(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def _writer_outputs(tmp_path) -> dict:
    got = {}

    g = build_topology(_SMALL_RGG)
    for label, graph in (("grid", build_topology(Grid(5, 7))), ("rgg", g)):
        path = tmp_path / f"{label}.edges"
        save_edgelist(graph, str(path))
        buf = io.StringIO()
        save_edgelist(graph, buf)
        assert buf.getvalue().encode() == path.read_bytes()
        got[f"edges/{label}"] = _digest(path.read_bytes())
    assert build_topology(Grid(5, 7)).coords is None and g.coords is not None

    dmap = hop_distances(g, 0)
    rows = []
    for dest in range(1, g.n):
        q = query_for(g, 0, dest, Gossip4(0.4, 1, 1), max_attempts=2)
        rows.append((0, dest, discover_route(g, q, 17 + dest, dmap)))
    assert any(r.found for _, _, r in rows) and any(not r.found for _, _, r in rows)
    assert any(r.shortest_length is None for _, _, r in rows)
    buf = io.StringIO()
    route_results_to_csv(buf, rows)
    got["route_discovery"] = _digest(buf.getvalue())

    dirs = []
    for text, runner in ((_OVERHEAD, run_experiment), (_THETA, run_experiment), (_SWEEP, sweep_probability)):
        cfg = parse_config_text(text)
        runner(cfg, out_dir=str(tmp_path / cfg.name))
        dirs.append(str(tmp_path / cfg.name))
    out = tmp_path / "report"
    report(dirs, out_dir=str(out))
    # the gnuplot file carries overhead.csv's ratio at full precision
    header, row = (tmp_path / "pin_overhead" / "overhead.csv").read_text().splitlines()
    ratio = dict(zip(header.split(","), row.split(",")))["ratio"]
    assert (out / "report_overhead.dat").read_text().splitlines()[1:] == [f"pin_overhead {ratio}"]
    for name in ("report_theta.dat", "report_overhead.dat", "report.gp"):
        got[f"report/{name}"] = _digest((out / name).read_bytes())
    return got


# SHA-256 of every writer outside the metric CSVs and manifests (which
# test_canned_artifacts_match_pinned_digests pins), recorded before the
# writers shared one row formatter; report_overhead.dat re-recorded when it
# took overhead.csv's full-precision ratio instead of the table's 3 decimals.
WRITER_DIGESTS = {
    "edges/grid": "88762691d43356683479699694cf4013c8420e8b9b08fbcc2b3ee56a51b2e267",
    "edges/rgg": "cea2f9684e806e4cef6dfe153edd7826b7ccd4ba8147d5371770e47af56062c3",
    "report/report.gp": "c23dea8f5578e08bf6703d12e97570cb0bfadc2c60262c24aac947e57cdcc0fb",
    "report/report_overhead.dat": "0a5c349d9f548a8574bf07a9ab447e1f4d8f53be1c27a9cc63e828ea6730fb61",
    "report/report_theta.dat": "1d8b46663d529dc37277821b8ec0a4a316f3da68b07066b65c7baa940f3532f6",
    "route_discovery": "761077c26ad861577db4dd6cb23c4f4aa295cc54cd5eb9ea3e220892ebb95845",
}


def test_writers_match_pinned_digests(tmp_path):
    assert _writer_outputs(tmp_path) == WRITER_DIGESTS
