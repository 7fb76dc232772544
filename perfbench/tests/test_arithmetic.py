"""Percentiles, lateness, trace apportioning and blocks, span self time."""

import statistics

import pytest

from harness import (
    Tracer,
    latency_ms,
    lateness_ms,
    median,
    median_at_reference_speed,
    percentile,
    union_length,
)
from serveclient import (
    MISS_ROUND,
    MIX,
    apportion,
    block_range,
    miss_plan,
    round_ms,
)


def test_percentile_matches_linear_interpolation():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 5.0
    assert percentile(values, 50) == 3.0
    assert percentile(values, 25) == 2.0
    assert percentile([1.0, 2.0], 50) == 1.5
    assert percentile([10.0, 20.0, 30.0, 40.0], 90) == pytest.approx(37.0)


def test_median_agrees_with_statistics():
    values = [0.3, 9.1, 2.2, 7.7, 4.4, 1.0]
    assert median(values) == pytest.approx(statistics.median(values))


def test_percentile_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        percentile([], 50)


def test_apportion_by_largest_remainder():
    assert apportion(10, [1, 1, 1]) == [4, 3, 3]
    assert apportion(240, [0.5, 0.25, 0.25]) == [120, 60, 60]
    assert apportion(7, [0.7, 0.2, 0.1]) == [5, 1, 1]  # 4.9 / 1.4 / 0.7
    assert sum(apportion(241, [0.3, 0.3, 0.4])) == 241


def test_miss_round_follows_the_search_and_timeline_mix():
    plan = miss_plan()
    assert sum(count for *_rest, count in plan) == MISS_ROUND
    timeline = sum(count for endpoint, *_rest, count in plan if endpoint == "timeline")
    mix = dict(MIX)
    share = mix["timeline"] / (mix["timeline"] + mix["search"])
    assert abs(timeline - share * MISS_ROUND) <= 1
    assert not any(kind == "domain" and platform == "mastodon"
                   for _e, platform, kind, *_rest in plan)


@pytest.mark.parametrize("blocks", [1, 2, 5, 12])
@pytest.mark.parametrize("rounds", [1, 2, 4, 5, 7, 20, 50])
def test_blocks_hold_whole_rounds(rounds, blocks):
    size = 240
    edges = [block_range(rounds * size, size, block, blocks) for block in range(blocks)]
    assert edges[0][0] == 0 and edges[-1][1] == rounds * size
    for (lo, hi), (next_lo, _) in zip(edges, edges[1:]):
        assert hi == next_lo
    assert all(lo % size == 0 and hi % size == 0 for lo, hi in edges)


def test_round_ms_is_wall_time_per_request_of_each_round():
    # (endpoint, due, sent, done, status, index): two rounds of two requests
    records = [("search", 0, 0.0, 0.1, 200, 0), ("search", 0, 0.05, 0.2, 200, 1),
               ("search", 0, 1.0, 1.3, 200, 2), ("search", 0, 1.1, 1.4, 200, 3)]
    assert round_ms(records, 2) == pytest.approx([100.0, 200.0])


def test_rounds_are_rescaled_by_the_probe_around_each():
    # a round at twice the reference probe time took twice as long: both
    # rescale to 1 ms; the 5 ms outlier does not move the median
    probes = [(0.001, 0.001), (0.002, 0.002), (0.0009, 0.0011), (0.001, 0.001)]
    assert median_at_reference_speed([1.0, 2.0, 1.0, 5.0], probes) == pytest.approx(1.0)
    assert median_at_reference_speed([3.0], [(0.001, 0.002)]) == pytest.approx(2.0)


def test_lateness_is_never_negative():
    assert lateness_ms(due=10.0, sent=10.0025) == pytest.approx(2.5)
    assert lateness_ms(due=10.0, sent=9.999) == 0.0


def test_latency_is_charged_from_the_due_time():
    # sent 4 ms late, served in 1 ms: the open loop reports 5 ms
    due, sent, done = 1.000, 1.004, 1.005
    assert latency_ms(due, done) == pytest.approx(5.0)
    assert latency_ms(sent, done) == pytest.approx(1.0)


def test_union_length_merges_overlaps_and_clips():
    assert union_length([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
    assert union_length([(-1, 2), (8, 12)], 0, 10) == 4
    assert union_length([], 0, 10) == 0


def test_self_time_subtracts_children():
    tracer = Tracer(True)
    tracer.add("root", 0.0, 10.0)
    tracer.spans.append(["child", 1.0, 4.0, 0, None, {}])
    tracer.spans.append(["child", 3.0, 6.0, 0, None, {}])
    times = tracer.self_times()
    assert times["root"] == pytest.approx(5.0)
    assert times["child"] == pytest.approx(6.0)


def test_disabled_tracer_records_nothing():
    tracer = Tracer(False)
    with tracer.span("x"):
        pass
    tracer.add("y", 0.0, 1.0)
    assert tracer.spans == [] and tracer.total("x") == 0.0
