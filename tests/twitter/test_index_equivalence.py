"""Index/scan equivalence: the planner must be invisible to callers.

The Search API plans content queries against the inverted indexes of
:mod:`repro.twitter.index`, but its contract is that pages, ordering and
pagination tokens are byte-identical to the linear archive scan it
replaced.  These tests enforce that contract property-style: a randomized
corpus (fixed seed), a reference implementation of the old scan pager, and
every query shape the planner distinguishes — phrases with internal /
leading / trailing / single tokens, hashtags, exact domains, parent-domain
(subdomain suffix) terms, date windows, ``from:user`` restrictions and
their combinations — must agree page by page.
"""

from __future__ import annotations

import datetime as dt

import numpy as np
import pytest

from repro.twitter.api import TwitterAPI
from repro.twitter.graph import FollowGraph
from repro.twitter.models import Tweet, TwitterUser
from repro.twitter.search import SearchQuery
from repro.twitter.store import TwitterStore

WINDOW_START = dt.date(2022, 10, 1)
N_AUTHORS = 10
N_TWEETS = 400

WORDS = (
    "mastodon twitter migration bird site fediverse server instance toot "
    "federation elephant takeover verified leaving moving home community "
    "social timeline follower algorithm chaos exodus joining account bridge"
).split()

HASHTAG_POOL = (
    "TwitterMigration",
    "Mastodon",
    "ByeByeTwitter",
    "RIPTwitter",
    "fediverse",
    "caturday",
)

DOMAIN_POOL = (
    "mastodon.social",
    "social.example.com",
    "example.com",
    "fosstodon.org",
    "hachyderm.io",
    "sub.deep.example.com",
)


def _build_corpus() -> TwitterStore:
    """A deterministic corpus inserted out of id order (dirty-run exercise)."""
    rng = np.random.default_rng(12345)
    store = TwitterStore()
    for author_id in range(1, N_AUTHORS + 1):
        store.add_user(
            TwitterUser(
                user_id=author_id,
                username=f"user{author_id}",
                display_name=f"User {author_id}",
                created_at=dt.datetime(2020, 1, 1),
            )
        )
    tweets = []
    for i in range(N_TWEETS):
        n_words = int(rng.integers(3, 12))
        words = [WORDS[int(k)] for k in rng.integers(0, len(WORDS), size=n_words)]
        text = " ".join(words)
        if rng.random() < 0.4:
            tag = HASHTAG_POOL[int(rng.integers(0, len(HASHTAG_POOL)))]
            text += f" #{tag}"
        if rng.random() < 0.3:
            domain = DOMAIN_POOL[int(rng.integers(0, len(DOMAIN_POOL)))]
            text += f" https://{domain}/@user{int(rng.integers(1, 9))}"
        if rng.random() < 0.05:
            text += " !!! ..."  # punctuation noise
        day = WINDOW_START + dt.timedelta(days=int(rng.integers(0, 45)))
        tweets.append(
            Tweet(
                tweet_id=1_000_000 + i * 7,
                author_id=int(rng.integers(1, N_AUTHORS + 1)),
                created_at=dt.datetime.combine(day, dt.time(10, 0)),
                text=text,
                source="Twitter Web App",
            )
        )
    order = list(rng.permutation(len(tweets)))
    store.extend_tweets(tweets[i] for i in order)
    return store


@pytest.fixture(scope="module")
def store() -> TwitterStore:
    return _build_corpus()


@pytest.fixture(scope="module")
def api(store: TwitterStore) -> TwitterAPI:
    return TwitterAPI(store, FollowGraph())


def _scan_pages(
    store: TwitterStore, query: SearchQuery, page_size: int
) -> list[tuple[list[int], str | None]]:
    """The pre-index linear scan pager, verbatim — the reference semantics."""
    archive = store.tweet_ids_sorted
    position = 0
    pages = []
    while True:
        matched: list[int] = []
        while position < len(archive) and len(matched) < page_size:
            tweet = store.get_tweet(archive[position])
            position += 1
            if query.matches(tweet):
                matched.append(tweet.tweet_id)
        token = f"t{position}" if position < len(archive) else None
        pages.append((matched, token))
        if token is None:
            break
    return pages


def _api_pages(
    api: TwitterAPI, query: SearchQuery, page_size: int
) -> list[tuple[list[int], str | None]]:
    pages = []
    token: str | None = None
    while True:
        page = api.search_all(query, next_token=token, page_size=page_size)
        pages.append(([t.tweet_id for t in page.tweets], page.next_token))
        token = page.next_token
        if token is None:
            break
    return pages


QUERY_SHAPES = [
    # phrase with an internal token (separator-bounded inside the phrase)
    SearchQuery(phrases=("bird site chaos",)),
    # two-token phrase: leading-suffix + trailing-prefix vocabulary passes
    SearchQuery(phrases=("mastodon migration",)),
    # single-token phrase (may sit inside a longer archive token)
    SearchQuery(phrases=("toot",)),
    # single-token phrase that is a substring of other tokens
    SearchQuery(phrases=("social",)),
    # punctuation-only phrase: unindexable, planner must hand back the scan
    SearchQuery(phrases=("!!!",)),
    # hashtags, mixed case and with a leading '#'
    SearchQuery(hashtags=("twittermigration",)),
    SearchQuery(hashtags=("#RIPTwitter", "Mastodon")),
    # exact domain
    SearchQuery(url_domains=("fosstodon.org",)),
    # parent domain matches subdomains via suffix keys
    SearchQuery(url_domains=("example.com",)),
    SearchQuery(url_domains=("deep.example.com",)),
    # subdomain term must NOT match its parent
    SearchQuery(url_domains=("social.example.com",)),
    # disjunction across all three term kinds
    SearchQuery(
        phrases=("bye bye",),
        hashtags=("fediverse",),
        url_domains=("hachyderm.io",),
    ),
    # window restrictions on a content query
    SearchQuery(
        phrases=("mastodon",),
        since=WINDOW_START + dt.timedelta(days=10),
        until=WINDOW_START + dt.timedelta(days=20),
    ),
    # empty result window
    SearchQuery(phrases=("mastodon",), until=WINDOW_START - dt.timedelta(days=1)),
    # author restriction on a content query
    SearchQuery(hashtags=("Mastodon",), from_user_id=3),
    # pure from:user query (served by the per-author index)
    SearchQuery(from_user_id=5),
    # pure from:user query with a window
    SearchQuery(
        from_user_id=2,
        since=WINDOW_START + dt.timedelta(days=5),
        until=WINDOW_START + dt.timedelta(days=30),
    ),
    # term matching nothing in the corpus
    SearchQuery(phrases=("zyzzyva",)),
    SearchQuery(url_domains=("nothere.example",)),
]


@pytest.mark.parametrize("query", QUERY_SHAPES, ids=lambda q: repr(q)[:70])
@pytest.mark.parametrize("page_size", [7, 100])
def test_index_pages_equal_scan_pages(api, store, query, page_size):
    assert _api_pages(api, query, page_size) == _scan_pages(store, query, page_size)


def test_matches_agree_with_drained_results(api, store):
    """Full drains equal the brute-force match set, in id order."""
    for query in QUERY_SHAPES:
        expected = [t.tweet_id for t in store.tweets() if query.matches(t)]
        got = [t.tweet_id for t in api.search_all_pages(query)]
        assert got == expected, query


def test_incremental_adds_keep_equivalence(store):
    """Adding tweets after queries ran must invalidate cached plans."""
    local = _build_corpus()
    api = TwitterAPI(local, FollowGraph())
    query = SearchQuery(hashtags=("TwitterMigration",))
    before = [t.tweet_id for t in api.search_all_pages(query)]
    assert before == [t.tweet_id for t in local.tweets() if query.matches(t)]
    # a late, out-of-order id (smaller than the existing run's tail)
    local.add_tweet(
        Tweet(
            tweet_id=999_999,
            author_id=1,
            created_at=dt.datetime(2022, 9, 30, 10, 0),
            text="late arrival #TwitterMigration",
            source="Twitter Web App",
        )
    )
    after = [t.tweet_id for t in api.search_all_pages(query)]
    assert after == [t.tweet_id for t in local.tweets() if query.matches(t)]
    assert after[0] == 999_999  # sorts first: smallest id
    assert len(after) == len(before) + 1


@pytest.mark.parametrize(
    "query",
    [
        SearchQuery(hashtags=("TwitterMigration",)),
        SearchQuery(url_domains=("example.com",)),
        # internal token "site": one verbatim postings list
        SearchQuery(phrases=("bird site chaos",)),
    ],
    ids=["hashtag", "domain", "internal-token-phrase"],
)
def test_single_list_plan_equals_merged_plan(query):
    """A one-list plan is that list's copy, equal to the set-merge it skips."""
    index = _build_corpus().index
    (term,) = query._tag_set or query._domain_set or query._lowered_phrases
    if query._tag_set:
        (single,) = [index._postings(index._tags, index._clean_tags, term)]
    elif query._domain_set:
        (single,) = [index._postings(index._domains, index._clean_domains, term)]
    else:
        (single,) = index._phrase_postings(term)
    merged = sorted(set(single))
    plan = index.candidates(query)
    assert len(single) > 0
    assert plan == merged
    assert plan is not single  # a copy: later writes must not reach a cached plan
