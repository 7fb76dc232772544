"""Tests for repro.twitter.ratelimit."""

import pytest

from repro import obs
from repro.errors import RateLimitExceeded
from repro.twitter.ratelimit import DEFAULT_LIMITS, EndpointLimit, RateLimiter


class TestEndpointLimit:
    def test_validation(self):
        with pytest.raises(ValueError):
            EndpointLimit(requests=0, window_seconds=10)
        with pytest.raises(ValueError):
            EndpointLimit(requests=5, window_seconds=0)

    def test_paper_following_quota(self):
        """The Follows API quota (15/15min) is what forced the 10% sample."""
        limit = DEFAULT_LIMITS["following"]
        assert limit.requests == 15
        assert limit.window_seconds == 900


class TestRateLimiter:
    def test_within_quota(self):
        limiter = RateLimiter({"x": EndpointLimit(3, 60)})
        for _ in range(3):
            limiter.acquire("x")
        assert limiter.request_counts["x"] == 3

    def test_exceeding_raises_with_retry_after(self):
        limiter = RateLimiter({"x": EndpointLimit(2, 60)})
        limiter.acquire("x")
        limiter.acquire("x")
        with pytest.raises(RateLimitExceeded) as exc:
            limiter.acquire("x")
        assert 0 < exc.value.retry_after <= 60
        assert exc.value.endpoint == "x"

    def test_window_reset_after_advance(self):
        limiter = RateLimiter({"x": EndpointLimit(1, 60)})
        limiter.acquire("x")
        limiter.advance(60)
        limiter.acquire("x")  # must not raise

    def test_wait_mode_advances_virtual_time(self):
        limiter = RateLimiter({"x": EndpointLimit(1, 60)})
        limiter.acquire("x")
        limiter.acquire("x", wait=True)
        assert limiter.waited_seconds == 60
        assert limiter.clock_seconds == 60

    def test_wait_accumulates(self):
        limiter = RateLimiter({"x": EndpointLimit(1, 30)})
        for _ in range(4):
            limiter.acquire("x", wait=True)
        assert limiter.waited_seconds == 90

    def test_unknown_endpoint(self):
        limiter = RateLimiter()
        with pytest.raises(KeyError):
            limiter.acquire("nope")

    def test_negative_advance_rejected(self):
        limiter = RateLimiter()
        with pytest.raises(ValueError):
            limiter.advance(-1)

    def test_max_requests_within(self):
        limiter = RateLimiter({"x": EndpointLimit(15, 900)})
        # a 14-day crawl at 15/900s: 15 * (14*86400 // 900) requests
        assert limiter.max_requests_within("x", 14 * 86_400) == 15 * 1344

    def test_max_requests_minimum_one_window(self):
        limiter = RateLimiter({"x": EndpointLimit(10, 900)})
        assert limiter.max_requests_within("x", 10) == 10

    def test_independent_endpoints(self):
        limiter = RateLimiter({"a": EndpointLimit(1, 60), "b": EndpointLimit(1, 60)})
        limiter.acquire("a")
        limiter.acquire("b")  # independent quota, no raise


class TestRateLimiterMetrics:
    """The limiter's counters, exposed through the metrics registry."""

    def test_request_counts_reconcile_with_registry(self):
        registry = obs.MetricsRegistry()
        with obs.use(registry):
            limiter = RateLimiter(
                {"a": EndpointLimit(2, 60), "b": EndpointLimit(1, 30)}
            )
            for _ in range(5):
                limiter.acquire("a", wait=True)
            for _ in range(3):
                limiter.acquire("b", wait=True)
        # the limiter's own accounting is internally consistent:
        # waiting is the only way this limiter advances its clock...
        assert limiter.clock_seconds >= limiter.waited_seconds
        # ...and per-endpoint counts sum to the total issued
        total = sum(limiter.request_counts.values())
        assert total == 8
        # the registry mirrors the limiter exactly, per endpoint and in sum
        per_endpoint = registry.counters_by_label(
            "twitter.ratelimit.requests", "endpoint"
        )
        assert per_endpoint == {
            str(k): float(v) for k, v in limiter.request_counts.items()
        }
        assert registry.counter_total("twitter.ratelimit.requests") == total
        assert (
            registry.counter_total("twitter.ratelimit.wait_seconds")
            == limiter.waited_seconds
        )

    def test_wait_seconds_attributed_to_the_depleted_endpoint(self):
        registry = obs.MetricsRegistry()
        with obs.use(registry):
            limiter = RateLimiter({"x": EndpointLimit(1, 45)})
            limiter.acquire("x", wait=True)
            limiter.acquire("x", wait=True)
        waits = registry.counters_by_label(
            "twitter.ratelimit.wait_seconds", "endpoint"
        )
        assert waits == {"x": 45}

    def test_window_rollovers_counted(self):
        registry = obs.MetricsRegistry()
        with obs.use(registry):
            limiter = RateLimiter({"x": EndpointLimit(1, 60)})
            limiter.acquire("x")
            limiter.advance(60)  # natural expiry
            limiter.acquire("x")
            limiter.acquire("x", wait=True)  # forced rollover via wait
        assert registry.counter_total("twitter.ratelimit.window_rollovers") == 2

    def test_raising_acquire_counts_nothing(self):
        registry = obs.MetricsRegistry()
        with obs.use(registry):
            limiter = RateLimiter({"x": EndpointLimit(1, 60)})
            limiter.acquire("x")
            with pytest.raises(RateLimitExceeded):
                limiter.acquire("x")
        assert registry.counter_total("twitter.ratelimit.requests") == 1
        assert registry.counter_total("twitter.ratelimit.wait_seconds") == 0
