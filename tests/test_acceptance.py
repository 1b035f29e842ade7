"""Acceptance suite: one test per numbered criterion, at stated tolerances.

Run `pytest tests/test_acceptance.py -v -s` to get one pass/fail line per
criterion sub-check.  Every criterion loads its canned config from configs/,
so each result is reproducible with a single CLI invocation, e.g.
`gossipsim run configs/grid_p65_bimodal.cfg`.
"""

import glob
import os
import numpy as np
import pytest

from gossipsim import (
    FLOODING,
    Gossip1,
    Gossip2,
    Gossip3,
    Gossip4,
    UNREACHABLE,
    build_topology,
    degree_stats,
    hop_distances,
    run_execution,
)
from gossipsim.experiments import parse_config, run_experiment
from gossipsim.metrics import RouteLengthAccumulator
from gossipsim.rng import child_seed

from conftest import random_graph
from test_properties import exact_receive_probabilities

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


class _Canned:
    """Runs canned configs lazily, once per session."""

    def __init__(self, root):
        self.root = root
        self.cache = {}

    def config(self, name):
        return parse_config(os.path.join(CONFIG_DIR, name + ".cfg"))

    def get(self, name):
        if name not in self.cache:
            self.cache[name] = run_experiment(self.config(name), out_dir=str(self.root / name))
        return self.cache[name]

    def rerun(self, name):
        return run_experiment(self.config(name), out_dir=str(self.root / (name + "_rerun")))


@pytest.fixture(scope="session")
def canned(tmp_path_factory):
    return _Canned(tmp_path_factory.mktemp("acceptance"))


def _check(results, label, ok, detail=""):
    print(f"  [{'PASS' if ok else 'FAIL'}] {label}  {detail}")
    results.append(ok)


def test_criterion_01_grid_bimodality(canned):
    print("\ncriterion 1: grid bimodality (20x50, gossip1(0.65,4), band 15-45)")
    bs = canned.get("grid_p65_bimodal").results["bimodal"]
    oks = []
    _check(oks, "<10% coverage in 14%+-7pp", 0.07 <= bs.frac_below_10pct <= 0.21, f"{bs.frac_below_10pct:.3f}")
    _check(oks, "<20% coverage in 19%+-7pp", 0.12 <= bs.frac_below_20pct <= 0.26, f"{bs.frac_below_20pct:.3f}")
    _check(oks, ">80% coverage in 59%+-7pp", 0.52 <= bs.frac_above_80pct <= 0.66, f"{bs.frac_above_80pct:.3f}")
    _check(oks, ">90% coverage in 41%+-7pp", 0.34 <= bs.frac_above_90pct <= 0.48, f"{bs.frac_above_90pct:.3f}")
    assert all(oks)


def test_criterion_02_near_certain_delivery(canned):
    # Known failure, cause not settled here.  The engine's gossip1 matches the
    # enumeration oracle (criterion 12), and the same 20x50 strip and source
    # reproduce criterion 1.  Over 2,000 runs of gossip1(0.72,4) the receive
    # fraction is 0.966 at d=30, 0.951 at d=47, 0.948 at d=48, 0.943 at d=49
    # and 0.936 at d=50; degree-4 interior nodes alone reach only 0.945 at
    # d=50.  This is a finite-size effect of the strip's far wall, 49 hops from
    # the source.  Which geometry, p and distance range the paper's >= 0.95
    # claim used is not recorded in the repo, so the check stays as written.
    print("\ncriterion 2: near-certain delivery (gossip1(0.72,4), all distances <= 50)")
    prof = canned.get("grid_p72_profile").results["profile"]
    worst = float(prof.fraction[:51].min())
    worst_d = int(prof.fraction[:51].argmin())
    oks = []
    _check(oks, "mean receive fraction >= 0.95 at every distance <= 50", worst >= 0.95,
           f"min {worst:.4f} at d={worst_d}")
    assert all(oks)


def test_criterion_03_degree_dependence(canned):
    print("\ncriterion 3: degree dependence (20x50 meshes)")
    oks = []
    cov6 = canned.get("mesh6_p65").results["bimodal"].coverages.mean()
    cov3hi = canned.get("mesh3_p86").results["bimodal"].coverages.mean()
    cov3lo = canned.get("mesh3_p65").results["bimodal"].coverages.mean()
    _check(oks, "degree-6 mesh, p=0.65: mean band coverage >= 0.90", cov6 >= 0.90, f"{cov6:.3f}")
    _check(oks, "degree-3 mesh, p=0.86: mean band coverage >= 0.90", cov3hi >= 0.90, f"{cov3hi:.3f}")
    _check(oks, "degree-3 mesh, p=0.65: mean band coverage <= 0.30", cov3lo <= 0.30, f"{cov3lo:.3f}")
    assert all(oks)


def test_criterion_04_random_graph_bimodality(canned):
    print("\ncriterion 4: random-graph bimodality (1000 nodes, band 15-35)")
    rs = canned.get("rnd8_bimodal")
    g = build_topology(rs.config.topology)
    mean_deg = degree_stats(g).mean_degree
    bs = rs.results["bimodal"]
    oks = []
    _check(oks, "mean degree 8+-0.5", 7.5 <= mean_deg <= 8.5, f"{mean_deg:.2f}")
    _check(oks, "<10% coverage in 20%+-7pp", 0.13 <= bs.frac_below_10pct <= 0.27, f"{bs.frac_below_10pct:.3f}")
    _check(oks, ">90% coverage in 70%+-7pp", 0.63 <= bs.frac_above_90pct <= 0.77, f"{bs.frac_above_90pct:.3f}")
    _check(oks, ">80% coverage in 75%+-7pp", 0.68 <= bs.frac_above_80pct <= 0.82, f"{bs.frac_above_80pct:.3f}")
    assert all(oks)


def test_criterion_05_threshold_curve(canned):
    from scipy.optimize import curve_fit

    print("\ncriterion 5: threshold curve (300x300 grid, gossip1(p,4))")
    rows = canned.get("theta_sweep_300").results["theta_curve"]
    curve = {p: est.theta_S for p, est in rows}
    oks = []
    _check(oks, "theta_S <= 0.05 at p=0.55", curve[0.55] <= 0.05, f"{curve[0.55]:.3f}")
    _check(oks, "theta_S >= 0.95 at p=0.68", curve[0.68] >= 0.95, f"{curve[0.68]:.3f}")

    def logistic(p, x0, s):
        return 1.0 / (1.0 + np.exp(-(p - x0) / s))

    ps = np.array(sorted(curve))
    ys = np.array([curve[p] for p in ps])
    (x0, s), _ = curve_fit(logistic, ps, ys, p0=(0.60, 0.02), maxfev=20000)
    fitted = {p: logistic(p, x0, s) for p in (0.59, 0.62, 0.65)}
    strictly_up = s > 0 and fitted[0.59] < fitted[0.62] < fitted[0.65]
    _check(oks, "fitted curve strictly increasing through 0.59-0.65", strictly_up,
           f"midpoint {x0:.3f}, scale {s:.4f}, fitted 0.59->{fitted[0.59]:.3f}, 0.65->{fitted[0.65]:.3f}")
    assert all(oks)


def test_criterion_06_k_dependence(canned):
    print("\ncriterion 6: k-dependence of theta_S (300x300 grid, p=0.65/0.70)")
    theta = {name: canned.get(name).results["theta"] for name in
             ("theta_k0_p65", "theta_k1_p65", "theta_k2_p65", "theta_k5_p65",
              "theta_k0_p70", "theta_k1_p70")}
    oks = []
    t1 = theta["theta_k1_p65"]
    _check(oks, "theta_S_1(0.65) = 0.95 +- 0.04", 0.91 <= t1.theta_S <= 0.99, f"{t1.theta_S:.3f}")
    t2 = theta["theta_k2_p65"]
    _check(oks, "theta_S_2(0.65) = 0.98 +- 0.03", 0.95 <= t2.theta_S <= 1.0, f"{t2.theta_S:.3f}")
    t5 = theta["theta_k5_p65"]
    _check(oks, "theta_S_5(0.65) >= 0.97", t5.theta_S >= 0.97, f"{t5.theta_S:.3f}")
    for p, k0_name, k1_name in ((0.65, "theta_k0_p65", "theta_k1_p65"),
                                (0.70, "theta_k0_p70", "theta_k1_p70")):
        t0, tk1 = theta[k0_name], theta[k1_name]
        scaled = (t0.ci[0] / p, t0.ci[1] / p)
        overlap = max(scaled[0], tk1.ci[0]) <= min(scaled[1], tk1.ci[1])
        _check(oks, f"theta_S_1({p}) = theta_S_0({p})/{p} within overlapping 95% CIs", overlap,
               f"k1 CI ({tk1.ci[0]:.3f},{tk1.ci[1]:.3f}) vs scaled k0 CI ({scaled[0]:.3f},{scaled[1]:.3f})")
    assert all(oks)


def test_criterion_07_message_overhead(canned):
    # Known failure: the GOSSIP2 boost rule is the open question.  The README's
    # sender-degree boost is pinned by three passing tests:
    #   test_engine.py::test_gossip2_boost_via_low_degree_sender
    #   test_engine.py::test_gossip2_no_boost_from_high_degree_sender
    #   test_properties.py::test_gossip2_boost_not_inherited
    # Under it the message gap is 0.200 (needed 0.09-0.17) and the profile gap
    # 0.122 (needed <= 0.05); two other boost rules each fail one sub-check.
    # Changing the rule without the paper's text would be fitting, and would
    # change the pinned rnd8_gossip2 artifacts, so the check stays as written.
    print("\ncriterion 7: message overhead (degree-8 random graph)")
    g3 = canned.get("rnd8_gossip3").results["overhead"]
    g75 = canned.get("rnd8_p75").results["overhead"]
    g2 = canned.get("rnd8_gossip2").results["overhead"]
    g80 = canned.get("rnd8_p80").results["overhead"]
    oks = []
    _check(oks, "gossip3(0.65,4,1,2) ratio 0.67 +- 0.04", 0.63 <= g3.ratio <= 0.71, f"{g3.ratio:.3f}")
    _check(oks, "gossip1(0.75,4) ratio 0.75 +- 0.03", 0.72 <= g75.ratio <= 0.78, f"{g75.ratio:.3f}")
    gap = g80.ratio - g2.ratio
    _check(oks, "gossip2(0.6,4,1,6) saves 13 +- 4pp of flooding messages vs gossip1(0.8,4)",
           0.09 <= gap <= 0.17, f"gap {gap:.3f} (g2 {g2.ratio:.3f}, g1(0.8) {g80.ratio:.3f})")
    prof2 = canned.get("rnd8_gossip2").results["profile"]
    prof80 = canned.get("rnd8_p80").results["profile"]
    upto = min(36, prof2.fraction.size, prof80.fraction.size)
    worst = float(np.abs(prof2.fraction[:upto] - prof80.fraction[:upto]).max())
    _check(oks, "coverage profiles match within 5pp at every distance <= 35", worst <= 0.05,
           f"max gap {worst:.3f}")
    assert all(oks)


def test_criterion_08_gossip3_latency(canned):
    print("\ncriterion 8: gossip3 latency statistics (L counters)")
    rep = canned.get("rnd8_gossip3").results["overhead"]
    oks = []
    # The cost of the timeout is the share of broadcasts a timeout produced.
    # frac_L_ge1 cannot stand in for it: the L = 0 broadcasters are a subset of
    # the same seed's gossip1 forwarders, so frac_L_ge1 >= 1 - B(gossip1)/B(gossip3)
    # (0.158 on this graph), whatever the timeout.
    _check(oks, "broadcasts produced by a timeout is <= 5%", rep.timeout_fraction <= 0.05,
           f"{rep.timeout_fraction:.3f} (broadcasts with L>=1: {rep.frac_L_ge1:.3f})")
    _check(oks, "of copies with L>=1, fraction with L<=2 is >= 90%",
           rep.L_le2_given_ge1 is not None and rep.L_le2_given_ge1 >= 0.90,
           f"{rep.L_le2_given_ge1:.3f}")
    assert all(oks)


def test_criterion_09_zones(canned):
    print("\ncriterion 9: zones (100-node random graph, gossip 0.65, k=1)")
    rs = canned.get("zones100")
    g = build_topology(rs.config.topology)
    mean_deg = degree_stats(g).mean_degree
    plain = rs.results["profile"]
    zoned = rs.results["zone_coverage"]
    oks = []
    _check(oks, "mean degree 13 +- 1", 12.0 <= mean_deg <= 14.0, f"{mean_deg:.2f}")
    _check(oks, "coverage at distance 10 = 76% +- 8pp without zones",
           0.68 <= plain.at(10) <= 0.84, f"{plain.at(10):.3f}")
    _check(oks, "coverage at distance 10 >= 92% with zone radius 3",
           zoned.at(10) >= 0.92, f"{zoned.at(10):.3f}")
    assert all(oks)


def test_criterion_10_retry(canned):
    print("\ncriterion 10: retry (destinations at distance 25, 2 attempts)")
    summary = canned.get("rnd8_retry").results["route_discovery"]
    s2 = summary["success_rate"]
    s1 = summary["one_attempt_rate"]
    predicted = 1 - (1 - s1) ** 2
    oks = []
    _check(oks, "two-attempt success rate 0.95 +- 0.03", 0.92 <= s2 <= 0.98, f"{s2:.3f}")
    _check(oks, "two-attempt rate equals 1-(1-s)^2 within 2pp", abs(s2 - predicted) <= 0.02,
           f"measured {s2:.3f} vs predicted {predicted:.3f} (s={s1:.3f})")
    assert all(oks)


def test_criterion_11_route_length(canned):
    print("\ncriterion 11: route length stretch (p just above threshold)")
    rs = canned.get("rnd8_routelen")
    ratio = rs.results["route_length"]
    oks = []
    _check(oks, "mean route_length_ratio in [1.05, 1.20] at p=0.70", 1.05 <= ratio <= 1.20,
           f"{ratio:.4f}")
    # flooding finds exact shortest paths in this model
    g = build_topology(rs.config.topology)
    src = rs.source_node
    dm = hop_distances(g, src)
    acc = RouteLengthAccumulator(dm, rs.config.route_min_distance)
    acc.add(run_execution(g, src, FLOODING, 1))
    _check(oks, "flooding ratio is exactly 1.0", acc.mean_ratio() == 1.0, f"{acc.mean_ratio():.4f}")
    assert all(oks)


def _oracle_graphs():
    import numpy as _np

    from gossipsim import Graph

    path9 = Graph(9, _np.column_stack([_np.arange(8), _np.arange(1, 9)]))
    ring10 = Graph(10, _np.array([[i, (i + 1) % 10] for i in range(9)] + [[0, 9]]))
    from gossipsim import Grid as _Grid

    grid3x4 = build_topology(_Grid(3, 4))
    k6 = Graph(6, _np.array([(u, v) for u in range(6) for v in range(u + 1, 6)]))
    rnd11 = random_graph(11, 0.3, 5)
    rnd13 = random_graph(13, 0.25, 7)
    return [
        ("path-9", path9, 0.5),
        ("ring-10", ring10, 0.4),
        ("grid-3x4", grid3x4, 0.6),
        ("K6", k6, 0.3),
        ("random-11", rnd11, 0.55),
        ("random-13", rnd13, 0.65),
    ]


def test_criterion_12_property_suite(canned):
    print("\ncriterion 12: property / oracle suite")
    oks = []

    # at-most-once, flooding-BFS, degeneracies, coupling (seeded spot checks)
    g = random_graph(60, 0.1, 31)
    dm = hop_distances(g, 0)
    flood = run_execution(g, 0, FLOODING, 3)
    _check(oks, "flooding-BFS exactness", bool(np.array_equal(flood.hop, dm.dist)))
    once_ok = True
    degeneracy_ok = True
    coupling_ok = True
    for seed in range(25):
        tr = run_execution(g, 0, Gossip1(0.6, 2), seed)
        once_ok &= tr.broadcast_count == int(tr.forwarded.sum())
        base = run_execution(g, 0, Gossip1(0.55, 3), seed)
        degeneracy_ok &= run_execution(g, 0, Gossip2(0.55, 3, 0.55, 4), seed).same_outcome(base)
        degeneracy_ok &= run_execution(g, 0, Gossip3(0.55, 3, 0, 2), seed).same_outcome(base)
        degeneracy_ok &= run_execution(g, 0, Gossip4(0.55, 3, 2), seed).same_outcome(base)
        degeneracy_ok &= bool(
            np.array_equal(run_execution(g, 0, Gossip1(1.0, 3), seed).received,
                           run_execution(g, 0, FLOODING, seed).received)
        )
        lo = run_execution(g, 0, Gossip1(0.45, 2), seed)
        hi = run_execution(g, 0, Gossip1(0.75, 2), seed)
        coupling_ok &= not np.any(lo.received & ~hi.received)
    _check(oks, "at-most-once broadcast on every trace", once_ok)
    _check(oks, "degeneracy equivalences under shared seeds", degeneracy_ok)
    _check(oks, "coupling monotonicity in p", coupling_ok)

    # brute-force receive-probability oracle, 50k runs, 3 standard errors
    runs = 50_000
    for idx, (name, graph, p) in enumerate(_oracle_graphs()):
        comp_ok = hop_distances(graph, 0).dist
        assert np.all(comp_ok != UNREACHABLE), f"{name} must be connected"
        exact = exact_receive_probabilities(graph, 0, p)
        batch_seed = child_seed(1000, idx)
        hits = np.zeros(graph.n)
        for i in range(runs):
            hits += run_execution(graph, 0, Gossip1(p, 1), child_seed(batch_seed, i)).received
        mc = hits / runs
        se = np.sqrt(np.maximum(exact * (1 - exact), 1e-12) / runs)
        ok = bool(np.all(np.abs(mc - exact) <= 3 * se + 1e-9))
        _check(oks, f"enumeration oracle on {name} (p={p})", ok,
               f"max |mc-exact| {float(np.abs(mc - exact).max()):.5f}")

    # byte-identical rerun of every canned config
    names = sorted(
        os.path.splitext(os.path.basename(f))[0]
        for f in glob.glob(os.path.join(CONFIG_DIR, "*.cfg"))
    )
    identical = True
    for name in names:
        first = canned.get(name)
        second = canned.rerun(name)
        if first.artifacts != second.artifacts:
            identical = False
            print(f"    mismatch for config {name}")
    _check(oks, f"byte-identical reruns of all {len(names)} canned configs", identical)
    assert all(oks)
