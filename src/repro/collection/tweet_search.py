"""Migration-tweet collection (Section 3.1).

Two full-archive searches over the collection window (Oct 26 - Nov 21 2022):

1. tweets containing a link to any known Mastodon instance, issued in
   domain batches (the real API bounds query length, so ~20 domains per
   query);
2. tweets containing the migration keywords and hashtags.

Results are merged and deduplicated; the authors' user objects are kept for
the matcher.  The paper gathered 2,090,940 tweets from 1,024,577 users here.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass, field

from repro import obs
from repro.errors import RateLimitExceeded, TransientError
from repro.twitter.api import TwitterAPI
from repro.twitter.models import Tweet, TwitterUser
from repro.twitter.search import SearchQuery, instance_link_query, migration_query
from repro.util.clock import TWEET_COLLECTION_END, TWEET_COLLECTION_START

#: Domains per instance-link query (the real query-length limit's effect).
DOMAIN_BATCH = 20


@dataclass
class CollectedTweets:
    """The §3.1 corpus: tweets plus their authors' user objects."""

    tweets: list[Tweet] = field(default_factory=list)
    users: dict[int, TwitterUser] = field(default_factory=dict)

    @property
    def tweet_count(self) -> int:
        return len(self.tweets)

    @property
    def user_count(self) -> int:
        return len(self.users)

    def tweets_by_author(self) -> dict[int, list[Tweet]]:
        by_author: dict[int, list[Tweet]] = {}
        for tweet in self.tweets:
            by_author.setdefault(tweet.author_id, []).append(tweet)
        return by_author


class TweetCollector:
    """Runs the two searches and merges the results."""

    def __init__(
        self,
        api: TwitterAPI,
        since: _dt.date = TWEET_COLLECTION_START,
        until: _dt.date = TWEET_COLLECTION_END,
    ) -> None:
        self._api = api
        self._since = since
        self._until = until

    def collect(self, instance_domains: list[str]) -> CollectedTweets:
        """Collect all migration-related tweets in the window."""
        registry = obs.current()
        collected = CollectedTweets()
        seen: set[int] = set()
        queries = self.build_queries(instance_domains)
        registry.counter("collection.tweet_search.queries").inc(len(queries))
        for query in queries:
            self.drain_query(query, collected, seen)
        return merge_collected([collected])

    def build_queries(self, instance_domains: list[str]) -> list[SearchQuery]:
        """The full query list: one keyword query plus domain-batch queries.

        Public so the sharded engine can partition the same query list the
        serial collector would have walked.
        """
        queries = [migration_query(self._since, self._until)]
        for start in range(0, len(instance_domains), DOMAIN_BATCH):
            batch = tuple(instance_domains[start : start + DOMAIN_BATCH])
            queries.append(instance_link_query(batch, self._since, self._until))
        return queries

    def drain_query(
        self, query: SearchQuery, collected: CollectedTweets, seen: set[int]
    ) -> None:
        """Walk every page of one query, degrading on exhausted transients.

        A transient failure that survived the transport's retry budget
        aborts the *rest of this query* (its already-collected pages stay),
        is counted, and the collector moves on to the next query — a real
        crawl loses a search window, not the run.
        """
        try:
            for page in self._api.iter_search_pages(query):
                for tweet in page.tweets:
                    if tweet.tweet_id not in seen:
                        seen.add(tweet.tweet_id)
                        collected.tweets.append(tweet)
                    else:
                        obs.current().counter(
                            "collection.tweet_search.duplicates"
                        ).inc()
                collected.users.update(page.users)
        except (TransientError, RateLimitExceeded):
            obs.current().counter("collection.tweet_search.aborted_queries").inc()


def merge_collected(parts: list[CollectedTweets]) -> CollectedTweets:
    """Merge per-shard corpora into the final §3.1 corpus.

    Deduplicates across parts (a tweet matched by queries in two different
    shards counts as a duplicate, exactly as the serial single-``seen``-set
    walk would have counted it), sorts by tweet id, and records the final
    corpus counters.  With a single part this is exactly the serial
    finalisation, so the serial and sharded paths share one code path.
    """
    registry = obs.current()
    merged = CollectedTweets()
    seen: set[int] = set()
    for part in parts:
        for tweet in part.tweets:
            if tweet.tweet_id not in seen:
                seen.add(tweet.tweet_id)
                merged.tweets.append(tweet)
            else:
                registry.counter("collection.tweet_search.duplicates").inc()
        merged.users.update(part.users)
    merged.tweets.sort(key=lambda t: t.tweet_id)
    registry.counter("collection.tweet_search.tweets").inc(merged.tweet_count)
    registry.counter("collection.tweet_search.users").inc(merged.user_count)
    return merged
