import io

import numpy as np
import pytest

from gossipsim import (
    FLOODING,
    Gossip1,
    Gossip3,
    Gossip4,
    Grid,
    build_topology,
    grid_index,
    hop_distances,
    iter_batch,
    run_execution,
)
from gossipsim.experiments import _bimodal_table, _profile_table, _theta_table
from gossipsim.metrics import (
    CoverageAccumulator,
    OverheadAccumulator,
    ProfileAccumulator,
    RouteLengthAccumulator,
    ZoneCoverageAccumulator,
    wilson_interval,
)
from gossipsim.textio import write_rows
from gossipsim.topology import zone_levels

from conftest import line_graph


@pytest.fixture(scope="module")
def grid_setup():
    g = build_topology(Grid(10, 20))
    src = grid_index(10, 20, 5, 0)
    return g, src, hop_distances(g, src)


def test_flooding_profile_is_all_ones(grid_setup):
    g, src, dm = grid_setup
    prof = ProfileAccumulator(dm).consume(iter_batch(g, src, FLOODING, 5, 1)).result()
    assert np.all(prof.fraction == 1.0)
    assert np.all(prof.stderr == 0.0)
    assert prof.fraction[0] == 1.0
    assert prof.node_count.sum() == g.n
    assert prof.runs == 5


def test_profile_distance_zero_is_source(grid_setup):
    g, src, dm = grid_setup
    prof = ProfileAccumulator(dm).consume(iter_batch(g, src, Gossip1(0.3, 1), 30, 9)).result()
    assert prof.fraction[0] == 1.0
    assert np.all(prof.fraction <= 1.0) and np.all(prof.fraction >= 0.0)


def test_profile_excludes_unreachable():
    from gossipsim import Graph

    g = Graph(5, np.array([[0, 1], [1, 2], [3, 4]]))
    dm = hop_distances(g, 0)
    prof = ProfileAccumulator(dm).consume(iter_batch(g, 0, FLOODING, 3, 2)).result()
    assert prof.node_count.sum() == 3  # nodes 3, 4 unreachable


def test_empty_trace_list_rejected(grid_setup):
    g, src, dm = grid_setup
    with pytest.raises(ValueError):
        ProfileAccumulator(dm).consume([])
    with pytest.raises(ValueError):
        CoverageAccumulator(dm, (2, 5)).consume([])


def test_flooding_bimodal_all_high(grid_setup):
    g, src, dm = grid_setup
    summary = CoverageAccumulator(dm, (2, 10)).consume(iter_batch(g, src, FLOODING, 20, 3)).summary()
    assert summary.frac_above_90pct == 1.0
    assert summary.frac_above_80pct == 1.0
    assert summary.frac_below_10pct == 0.0
    assert summary.bin_fraction[-1] == 1.0


def test_bimodal_tail_monotonicity(grid_setup):
    g, src, dm = grid_setup
    summary = CoverageAccumulator(dm, (2, 12)).consume(iter_batch(g, src, Gossip1(0.55, 2), 60, 8)).summary()
    assert summary.frac_below_10pct <= summary.frac_below_20pct
    assert summary.frac_above_90pct <= summary.frac_above_80pct
    assert summary.bin_fraction.sum() == pytest.approx(1.0)
    assert summary.coverages.size == 60


def test_band_without_nodes_rejected(grid_setup):
    g, src, dm = grid_setup
    with pytest.raises(ValueError):
        CoverageAccumulator(dm, (100, 120))
    with pytest.raises(ValueError):
        CoverageAccumulator(dm, (5, 2))


def test_theta_certain_at_p1(grid_setup):
    g, src, dm = grid_setup
    est = CoverageAccumulator(dm, (2, 10)).consume(iter_batch(g, src, Gossip1(1.0, 4), 40, 4)).theta()
    assert est.theta_S == 1.0
    assert est.theta_R == 1.0
    assert est.survivors == 40
    assert est.ci[0] > 0.9 and est.ci[1] == 1.0


def test_theta_zero_at_p0(grid_setup):
    g, src, dm = grid_setup
    est = CoverageAccumulator(dm, (2, 10)).consume(iter_batch(g, src, Gossip1(0.0, 1), 20, 4)).theta()
    assert est.theta_S == 0.0 and est.theta_R is None


def test_theta_threshold_validation(grid_setup):
    g, src, dm = grid_setup
    traces = list(iter_batch(g, src, FLOODING, 2, 1))
    with pytest.raises(ValueError):
        CoverageAccumulator(dm, (2, 10)).consume(traces).theta(extinction_threshold=0.0)


def test_wilson_interval():
    lo, hi = wilson_interval(95, 100)
    assert 0.88 < lo < 0.95 < hi < 0.99
    lo0, hi0 = wilson_interval(0, 50)
    assert lo0 == 0.0 and hi0 > 0.0
    with pytest.raises(ValueError):
        wilson_interval(1, 0)


def test_flooding_overhead_ratio_exactly_one(grid_setup):
    g, src, dm = grid_setup
    report = OverheadAccumulator(g.n, None).consume(iter_batch(g, src, FLOODING, 4, 6)).result()
    assert report.ratio == 1.0
    assert report.mean_broadcasts == g.n
    assert report.zone_unicasts == 0.0
    assert report.timeout_fraction == 0.0


def test_overhead_requires_positive_baseline(grid_setup):
    g, src, dm = grid_setup
    with pytest.raises(ValueError):
        OverheadAccumulator(0, None)


def test_overhead_gossip3_latency_fields(grid_setup):
    g, src, dm = grid_setup
    report = OverheadAccumulator(g.n, None).consume(iter_batch(g, src, Gossip3(0.5, 2, 1, 2), 30, 11)).result()
    assert 0.0 <= report.timeout_fraction <= 1.0
    # every timeout forward carries L >= 1, so it is among the L >= 1 broadcasts
    assert report.frac_L_ge1 >= report.timeout_fraction
    if report.timeout_fraction > 0:
        assert report.timeout_L_le2 is not None
    if report.frac_L_ge1 > 0:
        assert report.L_le2_given_ge1 is not None


def test_zone_radius_zero_equals_plain_profile(grid_setup):
    g, src, dm = grid_setup
    traces = list(iter_batch(g, src, Gossip1(0.5, 2), 25, 12))
    plain = ProfileAccumulator(dm).consume(traces).result()
    zoned = ZoneCoverageAccumulator(g, dm, 0).consume(traces).result()
    assert np.array_equal(plain.fraction, zoned.fraction)


def test_zone_radius_diameter_covers_everything(grid_setup):
    g, src, dm = grid_setup
    diameter = int(dm.max_distance) + 20
    traces = list(iter_batch(g, src, Gossip1(0.0, 1), 10, 13))  # at least the source received
    zoned = ZoneCoverageAccumulator(g, dm, diameter).consume(traces).result()
    assert np.all(zoned.fraction == 1.0)


def test_zone_covered_levels():
    g = line_graph(6)
    received = np.array([True, False, False, False, False, False])
    cov1 = zone_levels(g, received, 1) >= 0
    assert list(cov1) == [True, True, False, False, False, False]
    cov3 = zone_levels(g, received, 3) >= 0
    assert list(cov3) == [True, True, True, True, False, False]


def test_zone_unicast_accounting():
    g = line_graph(5)
    tr = run_execution(g, 0, Gossip4(0.0, 1, 2), 3)  # receivers: 0, 1
    acc = OverheadAccumulator(5, ZoneCoverageAccumulator(g, hop_distances(g, 0), 2))
    acc.add(tr)
    # covered non-receivers: node 2 (1 hop from node 1), node 3 (2 hops)
    assert acc.zone.unicasts == [1 + 2]
    report = acc.result()
    assert report.zone_unicasts == 3.0
    # the overhead accumulator hands the trace on: one zone profile run
    assert acc.zone.result().runs == 1
    # radius 0 covers only the receivers: 0 unicasts per run
    acc0 = OverheadAccumulator(5, ZoneCoverageAccumulator(g, hop_distances(g, 0), 0)).consume([tr, tr])
    assert acc0.zone.unicasts == [0, 0] and acc0.result().zone_unicasts == 0.0
    # a gossip4 trace with no zone accumulator to count its unicasts fails
    acc_none = OverheadAccumulator(5, None)
    acc_none.add(run_execution(g, 0, Gossip1(0.5, 1), 3))
    with pytest.raises(ValueError, match="zone-coverage"):
        acc_none.add(tr)


def test_route_length_ratio_flooding_is_one(grid_setup):
    g, src, dm = grid_setup
    acc = RouteLengthAccumulator(dm, 1).consume([run_execution(g, src, FLOODING, 17)])
    assert acc.count == g.n - 1
    assert acc.mean_ratio() == 1.0


def test_route_length_ratio_line_graph_unique_path():
    g = line_graph(10)
    dm = hop_distances(g, 0)
    tr = run_execution(g, 0, Gossip3(0.3, 1, 1, 2), 23)
    assert tr.received[9]
    acc = RouteLengthAccumulator(dm, 9).consume([tr])
    assert acc.count == 1 and acc.mean_ratio() == 1.0
    beyond = RouteLengthAccumulator(dm, 10).consume([tr])  # no node is 10 hops away
    with pytest.raises(ValueError, match="no reached destinations"):
        beyond.mean_ratio()


def test_estimators_are_pure(grid_setup):
    g, src, dm = grid_setup
    traces = list(iter_batch(g, src, Gossip1(0.6, 2), 15, 31))
    a = CoverageAccumulator(dm, (2, 10)).consume(traces).summary()
    b = CoverageAccumulator(dm, (2, 10)).consume(traces).summary()
    assert np.array_equal(a.coverages, b.coverages)
    assert a.frac_above_80pct == b.frac_above_80pct


def test_boundary_dropoff_in_individual_runs():
    # the near-boundary dip (no back-propagation past the region edge) is a
    # per-run effect, not an averaging artifact
    from gossipsim import RandomGeometric

    g = build_topology(RandomGeometric(1000, 7500, 3000, 250, 28))
    src = int(np.argmin(g.coords[:, 0]))
    dm = hop_distances(g, src)
    dmax = dm.max_distance
    med = dmax // 2
    mid_ring = (dm.dist >= med - 1) & (dm.dist <= med + 1)
    far_ring = dm.dist >= dmax - 3
    # distant nodes hugging the region edge vs distant interior nodes
    x, y = g.coords[:, 0], g.coords[:, 1]
    edge = (x < 250) | (x > 7250) | (y < 250) | (y > 2750)
    far = dm.dist >= int(0.75 * dmax)
    band = (dm.dist >= 15) & (dm.dist <= 35)
    ring_diffs = []
    edge_diffs = []
    for tr in iter_batch(g, src, Gossip1(0.72, 4), 120, 7):
        if tr.received[band].mean() < 0.5:
            continue  # extinct
        ring_diffs.append(tr.received[mid_ring].mean() - tr.received[far_ring].mean())
        edge_diffs.append(tr.received[far & ~edge].mean() - tr.received[far & edge].mean())
    assert len(ring_diffs) >= 80
    assert np.mean(ring_diffs) > 0
    assert np.mean(edge_diffs) > 0
    nz = np.array(edge_diffs)[np.array(edge_diffs) != 0.0]
    assert np.mean(nz > 0) > 0.7  # holds run by run, not just on average


def test_profile_csv_format(grid_setup):
    g, src, dm = grid_setup
    prof = ProfileAccumulator(dm).consume(iter_batch(g, src, FLOODING, 2, 1)).result()
    buf = io.StringIO()
    write_rows(buf, *_profile_table(prof))
    lines = buf.getvalue().splitlines()
    assert lines[0] == "distance,count,fraction,stderr"
    assert lines[1] == "0,1,1.0,0.0"


def test_bimodal_csv_has_bins_and_tails(grid_setup):
    g, src, dm = grid_setup
    summary = CoverageAccumulator(dm, (2, 10)).consume(iter_batch(g, src, FLOODING, 3, 1)).summary()
    buf = io.StringIO()
    write_rows(buf, *_bimodal_table(summary))
    text = buf.getvalue()
    assert text.startswith("bin_lo,bin_hi,run_fraction\n")
    assert text.count("\n") == 1 + 10 + 4  # header, 10 bins, 4 tail rows
    assert "below_10pct,,0.0" in text
    assert "above_90pct,,1.0" in text


def test_theta_csv(grid_setup):
    g, src, dm = grid_setup
    est = CoverageAccumulator(dm, (2, 10)).consume(iter_batch(g, src, FLOODING, 4, 2)).theta()
    buf = io.StringIO()
    write_rows(buf, *_theta_table([(1.0, est)]))
    lines = buf.getvalue().splitlines()
    assert lines[0] == "p,theta_S,ci_lo,ci_hi,theta_R"
    assert lines[1].startswith("1.0,1.0,")
