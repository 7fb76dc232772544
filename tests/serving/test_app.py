"""Tests for repro.serving.app: endpoint behavior over the small dataset."""

import json

import pytest

from repro import obs
from repro.serving.app import ServingApp, render
from tests.oracles import serving as oracle


def get_json(app, target):
    status, body = app.get(target)
    return status, json.loads(body)


class TestRender:
    def test_compact_deterministic_bytes(self):
        assert render({"b": 1, "a": [1, 2]}) == b'{"b":1,"a":[1,2]}'


class TestEndpoints:
    def test_healthz_reports_counts(self, serving_app, small_dataset):
        status, payload = get_json(serving_app, "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["migrants"] == len(small_dataset.matched)
        assert payload["instances"] == len(small_dataset.instance_domains)

    def test_search_pagination(self, serving_app):
        status, full = get_json(serving_app, "/v1/search?q=mastodon&limit=500")
        assert status == 200
        assert len(full["rows"]) == min(full["total"], 500)
        _, page = get_json(serving_app, "/v1/search?q=mastodon&limit=2&offset=1")
        assert page["total"] == full["total"]
        assert page["rows"] == full["rows"][1:3]

    def test_search_rows_ascend_by_tweet_id(self, serving_app):
        _, payload = get_json(serving_app, "/v1/search?q=mastodon&limit=500")
        ids = [row["id"] for row in payload["rows"]]
        assert ids == sorted(ids)

    def test_search_window_filters_days(self, serving_app):
        _, windowed = get_json(
            serving_app,
            "/v1/search?q=mastodon&since=2022-11-01&until=2022-11-30&limit=500",
        )
        assert windowed["rows"], "window should overlap the migration burst"
        assert all(
            "2022-11-01" <= row["day"] <= "2022-11-30" for row in windowed["rows"]
        )

    def test_timeline_roundtrip(self, serving_app, small_dataset):
        uid = next(iter(small_dataset.twitter_timelines))
        status, payload = get_json(serving_app, f"/v1/timeline/{uid}?limit=500")
        assert status == 200
        assert payload["total"] == len(small_dataset.twitter_timelines[uid])
        days = [row["day"] for row in payload["rows"]]
        assert days == sorted(days)

    def test_timeline_unknown_uid_404(self, serving_app):
        status, payload = get_json(serving_app, "/v1/timeline/999999999999")
        assert status == 404
        assert payload["status"] == 404

    def test_instances_ranked_by_population(self, serving_app):
        _, payload = get_json(serving_app, "/v1/instances?limit=500")
        users = [row["users"] for row in payload["rows"]]
        assert users == sorted(users, reverse=True)

    def test_instance_detail(self, serving_app):
        _, listing = get_json(serving_app, "/v1/instances?limit=1")
        top = listing["rows"][0]
        status, payload = get_json(serving_app, f"/v1/instances/{top['domain']}")
        assert status == 200
        assert payload["users"] == top["users"]
        assert isinstance(payload["weekly"], list)

    def test_trends_series(self, serving_app, small_dataset):
        _, payload = get_json(serving_app, "/v1/trends")
        assert payload["terms"] == sorted(small_dataset.trends)
        _, one = get_json(serving_app, "/v1/trends?term=mastodon")
        assert one["terms"] == ["Mastodon"]
        assert list(one["series"]) == ["Mastodon"]

    def test_trends_term_is_case_insensitive(self, serving_app):
        a = serving_app.get("/v1/trends?term=Mastodon")
        b = serving_app.get("/v1/trends?term=mastodon")
        assert a == b
        assert a[0] == 200


class TestErrors:
    def test_unknown_path_404(self, serving_app):
        status, payload = get_json(serving_app, "/v2/search")
        assert status == 404

    def test_bad_params_400(self, serving_app):
        status, payload = get_json(serving_app, "/v1/search?limit=10")
        assert status == 400
        assert "error" in payload

    def test_non_get_405(self, serving_app):
        status, _ = serving_app.handle("/healthz", "", method="POST")
        assert status == 405

    def test_errors_are_counted(self, small_dataset):
        app = oracle.naive_app(small_dataset)
        app.get("/nope")
        assert app.error_count == 1
        assert app.request_count == 1

    def test_non_ascii_digit_uid_is_a_counted_404(self, small_dataset):
        app = ServingApp(small_dataset)
        status, _ = app.get("/v1/timeline/\u00b2")
        assert status == 404
        assert app.error_count == 1
        assert app.request_count == 1


class TestCachesAndMetrics:
    def test_metrics_reports_cache_stats(self, small_dataset):
        app = ServingApp(small_dataset)
        app.warm()
        app.get("/v1/instances")
        app.get("/v1/instances")
        status, payload = get_json(app, "/metrics")
        assert status == 200
        assert payload["caches"]["enabled"] is True
        assert payload["caches"]["payload"]["hits"] == 1
        assert payload["caches"]["result"]["entries"] == 1

    def test_latency_histograms_when_registry_active(self, small_dataset):
        with obs.use(obs.MetricsRegistry()) as registry:
            app = ServingApp(small_dataset)
            app.warm()
            app.get("/v1/instances")
            status, payload = get_json(app, "/metrics")
        assert payload["latency_seconds"]["instances"]["count"] == 1
        requests = registry.counters_by_label("serving.requests", "endpoint")
        assert requests["instances"] == 1

    def test_cache_stats_includes_frames_and_index(self, serving_app):
        stats = serving_app.cache_stats()
        assert stats["enabled"] is True
        assert "products_built" in stats["frames_results"]
        assert stats["index"]["tags"] > 0

    def test_caches_disabled_app_never_fills(self, small_dataset):
        app = ServingApp(small_dataset, caches=False)
        app.warm()
        app.get("/v1/instances")
        app.get("/v1/instances")
        stats = app.cache_stats()
        assert stats["enabled"] is False


class TestAsgi:
    """``ServingApp.__call__``: the ASGI surface kept for external servers."""

    @staticmethod
    def _drive(app, scope, incoming=()):
        import asyncio

        sent = []
        queue = list(incoming)

        async def receive():
            if queue:
                return queue.pop(0)
            return {"type": "http.request", "body": b"", "more_body": False}

        async def send(message):
            sent.append(message)

        asyncio.run(app(scope, receive, send))
        return sent

    def test_http_scope_roundtrip(self, serving_app):
        scope = {
            "type": "http",
            "method": "GET",
            "path": "/healthz",
            "query_string": b"",
        }
        start, body = self._drive(serving_app, scope)
        assert start["type"] == "http.response.start"
        assert start["status"] == 200
        assert body["type"] == "http.response.body"
        assert json.loads(body["body"])["status"] == "ok"

    @pytest.mark.parametrize(
        "path, query",
        [
            ("/healthz", b""),
            ("/v1/instances", b"limit=3&offset=1"),
            ("/v1/search", b"q=bye%20bye%20twitter&limit=5"),
            ("/no-such-path", b""),
            ("/v1/search", b"limit=5"),
        ],
    )
    def test_http_scope_gives_handle_status_and_body(self, serving_app, path, query):
        scope = {
            "type": "http",
            "method": "GET",
            "path": path,
            "query_string": query,
        }
        sent = self._drive(serving_app, scope)
        status, body = serving_app.handle(path, query.decode("latin-1"))
        assert sent == [
            {
                "type": "http.response.start",
                "status": status,
                "headers": [
                    (b"content-type", b"application/json"),
                    (b"content-length", str(len(body)).encode("ascii")),
                ],
            },
            {"type": "http.response.body", "body": body},
        ]

    def test_http_scope_method_reaches_handle(self, serving_app):
        scope = {"type": "http", "method": "POST", "path": "/healthz"}
        sent = self._drive(serving_app, scope)
        assert sent[0]["status"] == 405

    def test_lifespan_startup_and_shutdown_complete(self, serving_app):
        sent = self._drive(
            serving_app,
            {"type": "lifespan"},
            [{"type": "lifespan.startup"}, {"type": "lifespan.shutdown"}],
        )
        assert sent == [
            {"type": "lifespan.startup.complete"},
            {"type": "lifespan.shutdown.complete"},
        ]

    @pytest.mark.parametrize("scope_type", ["websocket", "https", ""])
    def test_other_scope_types_raise(self, serving_app, scope_type):
        with pytest.raises(ValueError, match="unsupported ASGI scope type"):
            self._drive(serving_app, {"type": scope_type})
