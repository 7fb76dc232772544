"""Tests for repro.serving.loadgen: the determinism contract and replay."""

import pytest

from repro.collection.dataset import MigrationDataset
from repro.serving.app import ServingApp
from repro.serving.loadgen import (
    LoadgenConfig,
    WorkloadInventory,
    _burst_multiplier,
    build_trace,
    endpoint_counts,
    replay_closed,
    replay_open,
    trace_bytes,
)
from repro.util.clock import SIM_START, TAKEOVER_DATE


class TestConfig:
    def test_defaults_valid(self):
        config = LoadgenConfig()
        assert config.seed == 7
        assert dict(config.mix)["search"] == pytest.approx(0.45)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"requests": 0},
            {"mix": (("search", 0.5), ("nope", 0.5))},
            {"mastodon_share": 1.5},
            {"rate_rps": 0.0},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            LoadgenConfig(**kwargs)

    def test_to_dict_round_trips_the_knobs(self):
        d = LoadgenConfig(seed=3, requests=10).to_dict()
        assert d["seed"] == 3
        assert d["requests"] == 10
        assert d["mix"]["timeline"] == pytest.approx(0.35)


class TestDeterminism:
    def test_same_seed_same_bytes(self, small_dataset):
        config = LoadgenConfig(seed=7, requests=200)
        first = trace_bytes(build_trace(small_dataset, config))
        second = trace_bytes(build_trace(small_dataset, config))
        assert first == second

    def test_different_seed_different_trace(self, small_dataset):
        a = build_trace(small_dataset, LoadgenConfig(seed=7, requests=200))
        b = build_trace(small_dataset, LoadgenConfig(seed=8, requests=200))
        assert trace_bytes(a) != trace_bytes(b)

    def test_arrivals_monotone_and_seqs_dense(self, small_dataset):
        trace = build_trace(small_dataset, LoadgenConfig(seed=7, requests=150))
        assert [r.seq for r in trace] == list(range(150))
        arrivals = [r.arrival_s for r in trace]
        assert arrivals == sorted(arrivals)

    def test_worker_count_cannot_change_content(self, small_dataset, serving_app):
        trace = build_trace(small_dataset, LoadgenConfig(seed=7, requests=200))
        reports = [
            replay_closed(serving_app, trace, workers=workers)
            for workers in (1, 2, 5)
        ]
        counts = endpoint_counts(trace)
        for report in reports:
            assert report.endpoint_requests == counts
            assert report.requests == 200
            assert report.errors == reports[0].errors

    def test_targets_are_valid_requests(self, small_dataset, serving_app):
        trace = build_trace(small_dataset, LoadgenConfig(seed=13, requests=300))
        for request in trace:
            status, _ = serving_app.get(request.target)
            assert status == 200, request.target


class TestWorkloadShape:
    def test_mix_roughly_respected(self, small_dataset):
        trace = build_trace(small_dataset, LoadgenConfig(seed=7, requests=1000))
        counts = endpoint_counts(trace)
        assert counts["search"] > counts["instances"]
        assert counts["timeline"] > counts["trends"]

    def test_zipf_head_dominates_timelines(self, small_dataset):
        trace = build_trace(small_dataset, LoadgenConfig(seed=7, requests=1000))
        inventory = WorkloadInventory.from_dataset(small_dataset)
        head = {
            f"/v1/timeline/{uid}"
            for uid in inventory.twitter_uids[:5] + inventory.mastodon_uids[:5]
        }
        timeline = [r for r in trace if r.endpoint == "timeline"]
        hot = sum(1 for r in timeline if r.target.split("?")[0] in head)
        assert hot / len(timeline) > 0.5

    def test_burst_multiplier_peaks_on_event_days(self):
        config = LoadgenConfig()
        takeover = (TAKEOVER_DATE - SIM_START).days
        assert _burst_multiplier(takeover, config) == pytest.approx(
            config.burst_factor, rel=0.01
        )
        quiet = _burst_multiplier(takeover + 30, config)
        assert quiet < 1.1

    def test_inventory_rankings_are_total_orders(self, small_dataset):
        inventory = WorkloadInventory.from_dataset(small_dataset)
        assert len(set(inventory.twitter_uids)) == len(inventory.twitter_uids)
        assert len(set(inventory.hashtags)) == len(inventory.hashtags)
        assert inventory.trend_terms == sorted(small_dataset.trends)

    def test_inventory_on_a_reload_builds_no_post(self, small_dataset, small_npz):
        """Timeline sizes and status hashtags come from the frames tables,
        so a reload ranks the same keys without building a post."""
        reloaded = MigrationDataset.load(small_npz)
        inventory = WorkloadInventory.from_dataset(reloaded)
        for timelines in (reloaded.twitter_timelines, reloaded.mastodon_timelines):
            assert timelines.built_count == 0
        in_memory = WorkloadInventory.from_dataset(small_dataset)
        assert vars(inventory) == vars(in_memory)


class TestReplay:
    def test_closed_report_shape(self, small_dataset, serving_app):
        trace = build_trace(small_dataset, LoadgenConfig(seed=7, requests=120))
        report = replay_closed(serving_app, trace)
        assert report.mode == "closed"
        assert report.requests == 120
        assert report.throughput_rps > 0
        for endpoint_report in report.endpoints.values():
            assert endpoint_report.p50_ms <= endpoint_report.p99_ms

    def test_open_latency_includes_queueing(self, small_dataset):
        app = ServingApp(small_dataset)
        app.warm()
        trace = build_trace(small_dataset, LoadgenConfig(seed=7, requests=200))
        closed = replay_closed(app, trace)
        open_report = replay_open(app, trace, workers=1)
        assert open_report.mode == "open"
        # queue wait can only add latency on top of service time
        for name, closed_ep in closed.endpoints.items():
            assert open_report.endpoints[name].count == closed_ep.count

    def test_report_to_dict_is_json_shaped(self, small_dataset, serving_app):
        trace = build_trace(small_dataset, LoadgenConfig(seed=7, requests=60))
        d = replay_closed(serving_app, trace).to_dict()
        assert set(d) == {
            "mode",
            "workers",
            "requests",
            "errors",
            "wall_seconds",
            "throughput_rps",
            "endpoints",
        }
