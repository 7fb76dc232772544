"""Tests for repro.twitter.api."""

import datetime as dt

import pytest

from repro.errors import (
    NotFoundError,
    ProtectedAccountError,
    SuspendedAccountError,
)
from repro.twitter.api import TwitterAPI
from repro.twitter.graph import FollowGraph
from repro.twitter.models import AccountState, Tweet, TwitterUser
from repro.twitter.ratelimit import EndpointLimit, RateLimiter
from repro.twitter.search import SearchQuery
from repro.twitter.store import TwitterStore


@pytest.fixture
def service():
    store = TwitterStore()
    graph = FollowGraph()
    for uid, name in [(1, "alice"), (2, "bob"), (3, "carol"), (4, "dan")]:
        store.add_user(
            TwitterUser(
                user_id=uid,
                username=name,
                display_name=name.title(),
                created_at=dt.datetime(2015, 1, 1),
            )
        )
    for tid, (author, text) in enumerate(
        [
            (1, "joining mastodon today"),
            (1, "nothing to see"),
            (2, "bye bye twitter"),
            (3, "mastodon mastodon mastodon"),
            (2, "regular tweet"),
        ],
        start=1,
    ):
        store.add_tweet(
            Tweet(
                tweet_id=tid,
                author_id=author,
                created_at=dt.datetime(2022, 10, 27) + dt.timedelta(hours=tid),
                text=text,
                source="Twitter Web App",
            )
        )
    for followee in (2, 3, 4):
        graph.follow(1, followee)
    graph.follow(2, 1)
    api = TwitterAPI(store, graph)
    return store, graph, api


MASTODON_QUERY = SearchQuery(phrases=("mastodon",))


class TestSearch:
    def test_finds_matching_tweets(self, service):
        __, __, api = service
        tweets = api.search_all_pages(MASTODON_QUERY)
        assert [t.tweet_id for t in tweets] == [1, 4]

    def test_results_include_author_expansion(self, service):
        __, __, api = service
        page = api.search_all(MASTODON_QUERY)
        assert set(page.users) == {1, 3}
        assert page.users[1].username == "alice"

    def test_pagination(self, service):
        __, __, api = service
        first = api.search_all(MASTODON_QUERY, page_size=1)
        assert len(first.tweets) == 1
        assert first.next_token is not None
        second = api.search_all(MASTODON_QUERY, next_token=first.next_token, page_size=1)
        assert second.tweets[0].tweet_id != first.tweets[0].tweet_id

    def test_pagination_drains_everything_once(self, service):
        __, __, api = service
        paged = []
        token = None
        while True:
            page = api.search_all(MASTODON_QUERY, next_token=token, page_size=1)
            paged.extend(t.tweet_id for t in page.tweets)
            token = page.next_token
            if token is None:
                break
        assert paged == [1, 4]

    def test_malformed_token_rejected(self, service):
        __, __, api = service
        with pytest.raises(ValueError):
            api.search_all(MASTODON_QUERY, next_token="bogus")

    def test_search_consumes_rate_limit(self, service):
        store, graph, __ = service
        limiter = RateLimiter({"search": EndpointLimit(1, 900)})
        api = TwitterAPI(store, graph, limiter=limiter)
        api.search_all(MASTODON_QUERY)
        assert limiter.request_counts["search"] == 1
        api.search_all(MASTODON_QUERY)  # waits instead of raising
        assert limiter.waited_seconds == 900


class TestUserTimeline:
    def test_window_filter(self, service):
        __, __, api = service
        tweets = api.user_timeline(1, dt.date(2022, 10, 27), dt.date(2022, 10, 27))
        assert [t.tweet_id for t in tweets] == [1, 2]

    def test_suspended(self, service):
        store, __, api = service
        store.get_user(2).state = AccountState.SUSPENDED
        with pytest.raises(SuspendedAccountError):
            api.user_timeline(2, dt.date(2022, 10, 1), dt.date(2022, 11, 30))

    def test_deactivated(self, service):
        store, __, api = service
        store.get_user(2).state = AccountState.DEACTIVATED
        with pytest.raises(NotFoundError):
            api.user_timeline(2, dt.date(2022, 10, 1), dt.date(2022, 11, 30))

    def test_protected(self, service):
        store, __, api = service
        store.get_user(2).state = AccountState.PROTECTED
        with pytest.raises(ProtectedAccountError):
            api.user_timeline(2, dt.date(2022, 10, 1), dt.date(2022, 11, 30))


class TestGetUser:
    def test_active_visible(self, service):
        __, __, api = service
        assert api.get_user(1).username == "alice"

    def test_states(self, service):
        store, __, api = service
        store.get_user(3).state = AccountState.SUSPENDED
        with pytest.raises(SuspendedAccountError):
            api.get_user(3)
        store.get_user(4).state = AccountState.DEACTIVATED
        with pytest.raises(NotFoundError):
            api.get_user(4)


class TestFollowing:
    def test_followees_returned_sorted(self, service):
        __, __, api = service
        assert api.following_all(1) == [2, 3, 4]

    def test_pagination(self, service):
        __, __, api = service
        page = api.following(1, page_size=2)
        assert len(page.user_ids) == 2
        assert page.next_token is not None
        rest = api.following(1, next_token=page.next_token, page_size=2)
        assert rest.next_token is None
        assert page.user_ids + rest.user_ids == [2, 3, 4]

    def test_rate_limit_enforced_without_wait(self, service):
        store, graph, __ = service
        limiter = RateLimiter({"following": EndpointLimit(1, 900)})
        api = TwitterAPI(store, graph, limiter=limiter)
        api.following(1, wait=False)
        from repro.errors import RateLimitExceeded

        with pytest.raises(RateLimitExceeded):
            api.following(2, wait=False)

    def test_suspended_account_not_crawlable(self, service):
        store, __, api = service
        store.get_user(1).state = AccountState.SUSPENDED
        with pytest.raises(SuspendedAccountError):
            api.following(1)


class TestStreamingIterators:
    def test_iter_search_matches_drained_list(self, service):
        __, __, api = service
        streamed = [t.tweet_id for t in api.iter_search(MASTODON_QUERY)]
        drained = [t.tweet_id for t in api.search_all_pages(MASTODON_QUERY)]
        assert streamed == drained == [1, 4]

    def test_iter_search_pages_carry_author_expansions(self, service):
        __, __, api = service
        pages = list(api.iter_search_pages(MASTODON_QUERY))
        users = {uid for page in pages for uid in page.users}
        assert users == {1, 3}

    def test_iter_search_is_lazy(self, service):
        store, graph, __ = service
        limiter = RateLimiter({"search": EndpointLimit(100, 900)})
        api = TwitterAPI(store, graph, limiter=limiter)
        iterator = api.iter_search(MASTODON_QUERY)
        assert limiter.request_counts.get("search", 0) == 0
        next(iterator)
        assert limiter.request_counts["search"] == 1

    def test_iter_following_matches_drained_list(self, service):
        __, __, api = service
        assert list(api.iter_following(1)) == api.following_all(1) == [2, 3, 4]
