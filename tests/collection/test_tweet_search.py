"""Tests for repro.collection.tweet_search."""

import datetime as dt

import pytest

from repro.collection.tweet_search import DOMAIN_BATCH, TweetCollector
from repro.twitter.api import TwitterAPI
from repro.twitter.graph import FollowGraph
from repro.twitter.models import Tweet, TwitterUser
from repro.twitter.store import TwitterStore

WINDOW_START = dt.date(2022, 10, 26)
WINDOW_END = dt.date(2022, 11, 21)


@pytest.fixture
def api():
    store = TwitterStore()
    for uid, name in [(1, "alice"), (2, "bob"), (3, "carol")]:
        store.add_user(
            TwitterUser(
                user_id=uid, username=name, display_name=name,
                created_at=dt.datetime(2015, 1, 1),
            )
        )
    rows = [
        (1, dt.date(2022, 10, 28), "bye bye twitter for good"),
        (1, dt.date(2022, 10, 29), "nothing relevant"),
        (2, dt.date(2022, 10, 30), "moved to https://mastodon.social/@bob"),
        (2, dt.date(2022, 11, 25), "mastodon post outside the window"),
        (3, dt.date(2022, 10, 20), "mastodon before the window"),
        (3, dt.date(2022, 11, 1), "#TwitterMigration is real"),
    ]
    for tid, (author, day, text) in enumerate(rows, start=1):
        store.add_tweet(
            Tweet(
                tweet_id=tid, author_id=author,
                created_at=dt.datetime.combine(day, dt.time(10, 0)),
                text=text, source="Twitter Web App",
            )
        )
    return TwitterAPI(store, FollowGraph())


class TestCollect:
    def test_collects_keyword_and_link_tweets(self, api):
        collector = TweetCollector(api, since=WINDOW_START, until=WINDOW_END)
        collected = collector.collect(["mastodon.social"])
        texts = {t.text for t in collected.tweets}
        assert "bye bye twitter for good" in texts
        assert "moved to https://mastodon.social/@bob" in texts
        assert "#TwitterMigration is real" in texts

    def test_window_enforced(self, api):
        collector = TweetCollector(api, since=WINDOW_START, until=WINDOW_END)
        collected = collector.collect(["mastodon.social"])
        days = {t.created_date for t in collected.tweets}
        assert all(WINDOW_START <= d <= WINDOW_END for d in days)

    def test_irrelevant_tweets_excluded(self, api):
        collector = TweetCollector(api, since=WINDOW_START, until=WINDOW_END)
        collected = collector.collect(["mastodon.social"])
        assert "nothing relevant" not in {t.text for t in collected.tweets}

    def test_no_duplicates_across_queries(self, api):
        """A tweet matching both the keyword and link query appears once."""
        collector = TweetCollector(api, since=WINDOW_START, until=WINDOW_END)
        collected = collector.collect(["mastodon.social"])
        ids = [t.tweet_id for t in collected.tweets]
        assert len(ids) == len(set(ids))

    def test_tweets_sorted_chronologically(self, api):
        collector = TweetCollector(api, since=WINDOW_START, until=WINDOW_END)
        collected = collector.collect(["mastodon.social"])
        ids = [t.tweet_id for t in collected.tweets]
        assert ids == sorted(ids)

    def test_authors_collected(self, api):
        collector = TweetCollector(api, since=WINDOW_START, until=WINDOW_END)
        collected = collector.collect(["mastodon.social"])
        assert set(collected.users) == {1, 2, 3}
        assert collected.user_count == 3

    def test_tweets_by_author_index(self, api):
        collector = TweetCollector(api, since=WINDOW_START, until=WINDOW_END)
        collected = collector.collect(["mastodon.social"])
        by_author = collected.tweets_by_author()
        assert {t.text for t in by_author[1]} == {"bye bye twitter for good"}

    def test_domain_batching(self, api):
        collector = TweetCollector(api, since=WINDOW_START, until=WINDOW_END)
        domains = [f"host{i}.social" for i in range(DOMAIN_BATCH * 2 + 1)]
        queries = collector.build_queries(domains)
        # 1 keyword query + 3 link batches
        assert len(queries) == 4
        assert len(queries[1].url_domains) == DOMAIN_BATCH
        assert len(queries[-1].url_domains) == 1
