"""The serving correctness contracts (DESIGN.md §5).

Two byte-level equivalences, checked over a real generated workload plus
hand-picked edge cases:

- **columnar == naive** — every endpoint's payload from the columnar
  views is byte-identical to the per-object oracle
  (``tests/oracles/serving.py``);
- **caches == no caches** — enabling the cache tiers changes latency
  only, never bytes (the second, cached answer is identical too).

``/metrics`` is excluded by design: it reports the caches themselves and
is documented as the one volatile endpoint.
"""

import pytest

from repro.serving.app import ServingApp

#: Edge-case targets the random workload may not cover.
EDGE_TARGETS = [
    "/healthz",
    "/v1/search?q=no-such-phrase-anywhere&limit=10",
    "/v1/search?hashtag=%23TwitterMigration&limit=500",
    "/v1/search?q=mastodon&since=2022-11-01&until=2022-11-03",
    "/v1/search?q=mastodon&platform=mastodon&limit=500",
    "/v1/search?domain=mastodon.social&limit=500",
    "/v1/search?domain=no-such.example&limit=5",
    "/v1/search?q=mastodon&offset=100000",
    "/v1/timeline/1",  # unknown uid: identical 404 body
    "/v1/instances?limit=500",
    "/v1/instances?offset=7&limit=3",
    "/v1/instances/no-such.example",
    "/v1/trends",
    "/v1/trends?term=koo",
    "/v1/trends?term=unknown-term",
    "/v1/search?limit=5",  # 400: identical error body
]


class TestColumnarNaiveEquivalence:
    def test_generated_workload_is_byte_identical(
        self, serving_app, naive_app, small_trace
    ):
        for request in small_trace:
            assert serving_app.get(request.target) == naive_app.get(
                request.target
            ), request.target

    @pytest.mark.parametrize("target", EDGE_TARGETS)
    def test_edge_targets_are_byte_identical(self, serving_app, naive_app, target):
        assert serving_app.get(target) == naive_app.get(target)

    def test_every_timeline_is_byte_identical(
        self, serving_app, naive_app, small_dataset
    ):
        for uid in list(small_dataset.twitter_timelines)[:25]:
            target = f"/v1/timeline/{uid}?limit=500"
            assert serving_app.get(target) == naive_app.get(target)
        for uid in list(small_dataset.mastodon_timelines)[:25]:
            target = f"/v1/timeline/{uid}?platform=mastodon&limit=500"
            assert serving_app.get(target) == naive_app.get(target)


class TestCacheTransparency:
    def test_caches_change_latency_never_bytes(self, small_dataset, small_trace):
        cached = ServingApp(small_dataset, caches=True)
        cached.warm()
        uncached = ServingApp(small_dataset, caches=False)
        uncached.warm()
        for request in small_trace:
            first = cached.get(request.target)
            again = cached.get(request.target)  # warm-path answer
            assert first == again, request.target
            assert first == uncached.get(request.target), request.target
        assert cached.payload_cache.stats.hits > 0

    def test_result_tier_alone_is_transparent(self, small_dataset):
        # A tiny payload LRU forces evictions, steering hits to the
        # result-cache tier; bytes still cannot change.
        tiny = ServingApp(small_dataset, caches=True, payload_capacity=1)
        tiny.warm()
        plain = ServingApp(small_dataset, caches=False)
        plain.warm()
        targets = [
            "/v1/instances?limit=3",
            "/v1/trends",
            "/v1/instances?limit=3",
            "/v1/trends",
        ]
        for target in targets:
            assert tiny.get(target) == plain.get(target)
        assert tiny.payload_cache.evictions > 0
        assert tiny.result_cache.stats.hits > 0
