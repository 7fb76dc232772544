"""The columnar read models' own contracts, beyond byte equality.

``test_equivalence.py`` pins every payload to the per-object oracle over
generated workloads.  These tests pin the pieces the fast path is built
from, against brute force: the status phrase candidates (a superset of
the matches, selected by the ``TweetIndex`` rules over the
``status_tokens`` vocabulary, plus every row with a URL), the token and
hashtag postings, the in-place timeline columns, and the corpus id order
the tweet search relies on.
"""

from __future__ import annotations

import datetime as dt
from urllib.parse import quote

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collection.dataset import MigrationDataset
from repro.frames.core import frames_of
from repro.serving.app import ServingApp
from repro.serving.views import ColumnarViews
from repro.twitter.index import matching_tokens, phrase_options
from repro.util.text import tokenize_corpus
from tests.conftest import make_status, make_tweet
from tests.oracles.serving import naive_app

DAY = dt.date(2022, 11, 5)

#: Status texts covering each case the candidate rules must get right.
TEXTS = [
    "Moving to https://mastodon.social/@alice today",  # words only in a URL
    "Find me at HTTPS://Example.ORG/Me, ok",  # upper-case scheme
    "don't leave, it's fine",  # apostrophes are token bytes
    "café naïve résumé and the Kelvin sign",  # non-ASCII; K lowers to k
    "bye bye twitter",
    "good bye twitter!",
    "#TwitterMigration (mastodon) is here",
    "the mastodonian way of life",  # tokens that hold shorter ones
    "!!! ... ???",  # punctuation only
    "see http://plain.example/x and more",
    "",
    "Bye Bye Twitter, hello #Mastodon #mastodon",
]

PHRASES = [
    "mastodon.social/@alice",  # inside a URL only
    "social/@alice",
    "example.org/me",  # inside an upper-case URL only
    "https://",
    "don't",
    "it's fine",
    "'s fine",
    "café",
    "naïve ré",
    "kelvin",  # only through the lowered Kelvin sign
    "bye twitter",
    "good bye twitter!",
    "bye bye",
    "bye bye twitter, hello",
    "(mastodon)",  # leading and trailing separators
    "mastodon)",
    "(mastodon",
    "-fine",
    "odon",  # a single token inside longer tokens
    "mastodon",
    "astodonia",
    "nowhere",
    "!!!",  # punctuation only: every row is a candidate
    "...",
    "?",
    "://",
]


def _dataset(texts: list[str]) -> MigrationDataset:
    ds = MigrationDataset()
    timelines: dict[int, list] = {}
    for i, text in enumerate(texts):
        # three owners, several statuses each, days spread over a week
        status = make_status(
            1000 + i, f"u{i % 3}@mastodon.social", DAY + dt.timedelta(days=i % 7), text
        )
        timelines.setdefault(i % 3 + 1, []).append(status)
    ds.mastodon_timelines = timelines
    return ds


def _table_texts(ds: MigrationDataset) -> list[str]:
    return frames_of(ds).status_table.texts


def _brute_force_options(texts: list[str], term: str) -> list[set[int]]:
    """Per superset option of ``term``: the rows it selects, from the
    per-row tokens of ``tokenize_corpus`` and the rows holding a URL."""
    flat, offsets, vocab = tokenize_corpus(texts)
    lowered = [t.lower() for t in texts]
    url_rows = {r for r, t in enumerate(lowered) if "http://" in t or "https://" in t}
    options = phrase_options(term)
    if options is None:
        return [set(range(len(texts)))]
    out = []
    for mode, word in options:
        rows = set(url_rows)
        for r in range(len(texts)):
            tokens = {vocab[i]: None for i in flat[offsets[r] : offsets[r + 1]]}
            if matching_tokens(tokens, mode, word):
                rows.add(r)
        out.append(rows)
    return out


def _check_phrase(ds: MigrationDataset, term: str) -> None:
    texts = _table_texts(ds)
    statuses = ColumnarViews(ds)._status_search()
    candidates = statuses.phrase_candidates(term)
    assert np.all(np.diff(candidates) > 0), "candidates ascend, each row once"
    got = set(candidates.tolist())
    matches = {r for r, t in enumerate(texts) if term in t.lower()}
    assert matches <= got, (term, matches - got)
    assert got in _brute_force_options(texts, term), term


class TestStatusPhraseCandidates:
    @pytest.fixture(scope="class")
    def dataset(self):
        return _dataset(TEXTS)

    @pytest.mark.parametrize("term", PHRASES)
    def test_candidates_are_a_rule_selected_superset(self, dataset, term):
        _check_phrase(dataset, term)

    @pytest.mark.parametrize("term", PHRASES)
    def test_search_equals_the_oracle(self, dataset, term):
        target = f"/v1/search?platform=mastodon&q={quote(term)}&limit=500"
        assert ServingApp(dataset, caches=False).get(target) == naive_app(
            dataset
        ).get(target)

    def test_url_rows_are_candidates_for_any_token(self, dataset):
        statuses = ColumnarViews(dataset)._status_search()
        texts = _table_texts(dataset)
        url_rows = [r for r, t in enumerate(texts) if "://" in t]
        assert statuses.url_rows.tolist() == url_rows
        assert set(url_rows) <= set(statuses.phrase_candidates("nowhere").tolist())

    def test_punctuation_only_phrase_takes_every_row(self, dataset):
        statuses = ColumnarViews(dataset)._status_search()
        for term in ("!!!", "...", "://"):
            assert phrase_options(term) is None
            assert statuses.phrase_candidates(term).tolist() == list(
                range(len(TEXTS))
            )


_WORDS = st.sampled_from(
    ["mastodon", "Mastodon", "bye", "twitter", "don't", "it's", "odon", "ma",
     "café", "Kelvin", "İstanbul", "straße", "HTTPS://x.org/a", "http://m.s/@b",
     "#Tag", "a'b", "'", "x1", "99"]
)
_SEPARATORS = st.sampled_from([" ", "  ", ", ", "!", "-", "/", "(", ")", ".", "\n"])


@st.composite
def _texts(draw) -> str:
    parts = []
    for _ in range(draw(st.integers(0, 8))):
        parts.append(draw(_WORDS))
        parts.append(draw(_SEPARATORS))
    return "".join(parts)


@settings(max_examples=80, deadline=None)
@given(texts=st.lists(_texts(), min_size=1, max_size=8), data=st.data())
def test_fuzz_phrase_candidates_against_brute_force(texts, data):
    ds = _dataset(texts)
    lowered = [t.lower() for t in _table_texts(ds)]
    source = data.draw(st.sampled_from(lowered))
    start = data.draw(st.integers(0, len(source)))
    stop = data.draw(st.integers(start, len(source)))
    term = data.draw(
        st.one_of(st.just(source[start:stop]), _texts().map(str.lower))
    ).strip()
    if not term:
        return
    _check_phrase(ds, term)
    target = f"/v1/search?platform=mastodon&q={quote(term)}&limit=500"
    assert ServingApp(ds, caches=False).get(target) == naive_app(ds).get(target)


class TestPostings:
    def test_token_postings_equal_brute_force(self, small_dataset):
        statuses = ColumnarViews(small_dataset)._status_search()
        tokens = frames_of(small_dataset).status_tokens
        bounds = statuses.token_bounds
        flat, offsets = tokens.flat, tokens.offsets
        want: dict[int, list[int]] = {}
        for row in range(len(offsets) - 1):
            for token in flat[offsets[row] : offsets[row + 1]].tolist():
                want.setdefault(token, []).append(row)
        for token in range(len(tokens.vocab)):
            got = statuses.token_rows[bounds[token] : bounds[token + 1]].tolist()
            assert got == want.get(token, []), tokens.vocab[token]
        assert statuses.token_rows.dtype == np.min_scalar_type(len(offsets) - 1)

    def test_tag_postings_equal_brute_force(self, small_dataset):
        statuses = ColumnarViews(small_dataset)._status_search()
        rows = [
            {tag.lower() for tag in status.hashtags}
            for statuses_ in small_dataset.mastodon_timelines.values()
            for status in statuses_
        ]
        want: dict[str, list[int]] = {}
        for row, tags in enumerate(rows):
            for tag in sorted(tags):
                want.setdefault(tag, []).append(row)
        got = {tag: r.tolist() for tag, r in statuses.tag_rows.items()}
        assert got == want

    def test_a_tag_twice_in_one_status_counts_once(self):
        ds = _dataset(TEXTS)  # the last text carries #Mastodon and #mastodon
        # ...and is the last table row (owners take texts i % 3 in turn)
        rows = ColumnarViews(ds)._status_search().tag_rows["mastodon"]
        assert rows.tolist() == [len(TEXTS) - 1]
        target = "/v1/search?platform=mastodon&hashtag=mastodon"
        assert ServingApp(ds, caches=False).get(target) == naive_app(ds).get(target)


class TestReadModels:
    def test_timeline_columns_read_the_table_in_place(self, small_dataset):
        views = ColumnarViews(small_dataset)
        frames = views.frames
        for platform, table in (
            ("twitter", frames.tweet_table),
            ("mastodon", frames.status_table),
        ):
            columns = views._timeline(platform)
            for name, column in (
                ("days", table.day_ordinals),
                ("label_ids", table.label_ids),
                ("flags", table.flags),
                ("row_uids", table.row_uids),
                ("texts", table.texts),
            ):
                assert getattr(columns, name) is column, (platform, name)

    def test_corpus_must_ascend_by_id(self):
        ds = MigrationDataset()
        ds.collected_tweets = [
            make_tweet(20, 1, DAY, "bye bye twitter"),
            make_tweet(10, 2, DAY, "hello mastodon"),
        ]
        with pytest.raises(ValueError, match="ascend"):
            ColumnarViews(ds)._tweet_search()

    def test_extend_rejects_an_out_of_order_tail(self):
        old = MigrationDataset()
        old.collected_tweets = [make_tweet(20, 1, DAY, "bye bye twitter")]
        corpus = ColumnarViews(old)._tweet_search()
        new = MigrationDataset()
        new.collected_tweets = old.collected_tweets + [
            make_tweet(10, 2, DAY, "hello mastodon")
        ]
        with pytest.raises(ValueError, match="ascend"):
            corpus.extend(new, frames_of(new))

    def test_tweet_positions_follow_candidate_ids(self, serving_app, small_dataset):
        corpus = serving_app.views._tweet_search()
        from repro.twitter.search import SearchQuery

        query = SearchQuery(hashtags=("twittermigration",))
        positions = corpus.positions(query)
        ids = [small_dataset.collected_tweets[p].tweet_id for p in positions.tolist()]
        assert ids == corpus.index.candidates(query)
        assert len(ids) > 0
