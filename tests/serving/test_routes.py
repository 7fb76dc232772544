"""Tests for repro.serving.routes: routing and parameter normalization."""

import pytest

from repro.serving.routes import (
    DEFAULT_LIMIT,
    MAX_LIMIT,
    RequestError,
    RouteMatch,
    cache_key,
    normalize_params,
    parse_query_string,
    resolve,
)


class TestResolve:
    def test_literal_routes(self):
        assert resolve("/healthz") == RouteMatch("healthz")
        assert resolve("/metrics") == RouteMatch("metrics")
        assert resolve("/v1/search") == RouteMatch("search")
        assert resolve("/v1/instances") == RouteMatch("instances")
        assert resolve("/v1/trends") == RouteMatch("trends")

    def test_path_params(self):
        assert resolve("/v1/instances/mastodon.social") == RouteMatch(
            "instance", "mastodon.social"
        )
        assert resolve("/v1/timeline/42") == RouteMatch("timeline", "42")

    @pytest.mark.parametrize(
        "path",
        [
            "/",
            "/v1",
            "/v1/search/extra",
            "/v1/instances/",
            "/v1/instances/a/b",
            "/v1/timeline/alice",
            "/v1/timeline/",
            "/v1/timeline/\u00b2",
            "/v1/timeline/\u0663",
            "/HEALTHZ",
        ],
    )
    def test_unroutable_paths_404(self, path):
        with pytest.raises(RequestError) as err:
            resolve(path)
        assert err.value.status == 404


class TestParseQueryString:
    def test_decodes_url_encoding(self):
        assert parse_query_string("q=bye+bye%20twitter&limit=5") == {
            "q": "bye bye twitter",
            "limit": "5",
        }

    def test_blank_values_kept(self):
        assert parse_query_string("q=") == {"q": ""}

    def test_duplicate_key_is_400(self):
        with pytest.raises(RequestError) as err:
            parse_query_string("limit=1&limit=2")
        assert err.value.status == 400


class TestNormalizeSearch:
    def _norm(self, **params):
        return normalize_params(RouteMatch("search"), params)

    def test_defaults(self):
        normalized = self._norm(q="Mastodon")
        assert normalized == {
            "platform": "twitter",
            "kind": "q",
            "term": "mastodon",
            "since": None,
            "until": None,
            "limit": DEFAULT_LIMIT,
            "offset": 0,
        }

    def test_hashtag_normalized_like_the_index(self):
        a = self._norm(hashtag="#TwitterMigration")
        b = self._norm(hashtag="twittermigration")
        assert a == b
        assert a["term"] == "twittermigration"

    def test_equivalent_raw_forms_share_a_cache_key(self):
        a = self._norm(q="Mastodon", limit="50")
        b = self._norm(q="mastodon")
        assert cache_key("search", a) == cache_key("search", b)

    def test_limit_clamped(self):
        assert self._norm(q="x", limit="0")["limit"] == 1
        assert self._norm(q="x", limit="9999")["limit"] == MAX_LIMIT
        assert self._norm(q="x", offset="-3")["offset"] == 0

    def test_exactly_one_term_required(self):
        for params in ({}, {"q": "a", "hashtag": "b"}, {"q": ""}):
            with pytest.raises(RequestError) as err:
                self._norm(**params)
            assert err.value.status == 400

    def test_domain_search_is_twitter_only(self):
        with pytest.raises(RequestError):
            self._norm(domain="mastodon.social", platform="mastodon")

    def test_bad_dates_and_windows(self):
        with pytest.raises(RequestError):
            self._norm(q="x", since="yesterday")
        with pytest.raises(RequestError):
            self._norm(q="x", since="2022-11-10", until="2022-11-01")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(RequestError) as err:
            self._norm(q="x", page="2")
        assert err.value.status == 400
        assert "page" in err.value.message


class TestNormalizeOthers:
    def test_timeline_uid_from_path(self):
        normalized = normalize_params(RouteMatch("timeline", "42"), {})
        assert normalized["uid"] == 42
        assert normalized["platform"] == "twitter"

    def test_instance_domain_lowered(self):
        normalized = normalize_params(RouteMatch("instance", "Mastodon.Social"), {})
        assert normalized == {"domain": "mastodon.social"}

    def test_trends_term_optional(self):
        assert normalize_params(RouteMatch("trends"), {}) == {"term": None}
        assert normalize_params(RouteMatch("trends"), {"term": " Koo "}) == {
            "term": "koo"
        }

    def test_healthz_accepts_no_params(self):
        assert normalize_params(RouteMatch("healthz"), {}) == {}
        with pytest.raises(RequestError):
            normalize_params(RouteMatch("healthz"), {"verbose": "1"})
