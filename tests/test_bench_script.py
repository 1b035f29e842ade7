"""The gain rule of scripts/bench.py, checked on hand-made pairs of runs."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PARENT = [100.0 + i for i in range(10)]  # median 104.5, q3 - q1 = 4.5


@pytest.mark.parametrize("change, want", [
    ([p - 10 for p in PARENT], True),                          # every pair lower
    ([p + 10 for p in PARENT], True),                          # every pair higher
    ([p - 10 for p in PARENT[:9]] + [PARENT[9]], True),         # 9 lower, 1 tie
    ([p - 10 for p in PARENT[:8]] + PARENT[8:], False),         # 8 lower, 2 ties
    ([p - 10 for p in PARENT[:8]] + [p + 1 for p in PARENT[8:]], False),  # 8 of 10 lower
    ([p - 1 for p in PARENT], False),                          # all lower, medians within q3 - q1
])
def test_resolved_needs_gap_and_nine_in_ten_pairs(bench, change, want):
    pairs = list(zip(PARENT, change))
    assert bench.resolved(bench.spread(PARENT), bench.spread(change), pairs) is want


def test_resolved_on_seven_traced_pairs(bench):
    parent = PARENT[:7]
    all_lower = [p - 10 for p in parent]
    six_lower = all_lower[:6] + [parent[6] + 1]
    for change, want in ((all_lower, True), (six_lower, False)):
        assert bench.resolved(bench.spread(parent), bench.spread(change), list(zip(parent, change))) is want
    assert not bench.resolved(bench.spread(parent), bench.spread(all_lower), [])


def test_metric_pairs_keep_seed_order_and_skip_failed_runs(bench):
    def run(value):
        return {"metrics": {"wall_ref": {"value": value}}}

    parent = [run(1.0), {"returncode": 1, "stderr": ""}, run(3.0)]
    change = [run(0.5), run(2.0), run(2.5)]
    assert bench.metric_pairs(parent, change, "wall_ref") == [(1.0, 0.5), (3.0, 2.5)]
    assert bench.metric_pairs(parent, change, "setup_s") == []
