"""Endpoint implementations: the columnar read models behind every route.

:class:`ColumnarViews` is the serving path.  All per-request reads
come off numpy columns prepared once per dataset snapshot — the frames
timeline tables (per-account CSR offsets via ``frames.timeline_offsets``),
the §3.1 collected corpus behind a
:class:`~repro.twitter.index.TweetIndex`, per-tag and per-token row
postings over the status table, and a ranked instance directory.  A
request's window filter, count and page are one numpy mask and slice over
its candidate rows, and only the rows of the returned page are gathered
into Python values, so a cache miss costs what its page costs.  No
``Tweet`` or ``Status`` object is built while answering a request.

Its contract (enforced by ``tests/serving/test_equivalence.py``) is
byte-identical JSON payloads, for every endpoint and parameter set, to
the per-object reference views in ``tests/oracles/serving.py``, which
loop over the dataset's Python objects — which is what makes the serving
caches safe: a cache key is the normalized request, and the views are a
deterministic function of it.

Ordering rules both implement:

- tweet search results ascend by tweet id (the index's candidate order);
- status search results follow status-table row order, i.e. dataset dict
  iteration order with timeline order within a user;
- timelines keep timeline order; instances rank by (-users, domain).
"""

from __future__ import annotations

import datetime as _dt
import time
from typing import Callable

import numpy as np

from repro import obs
from repro.frames.core import frames_of
from repro.frames.tables import TimelineTable, TokenTable, iso_day_strings
from repro.serving.routes import RequestError
from repro.twitter.index import TweetIndex, matching_tokens, phrase_options
from repro.twitter.search import SearchQuery

#: Window sentinel ordinals (no date in the corpora falls outside these).
_ORD_MIN = 0
_ORD_MAX = 4_000_000

_NO_ROWS = np.empty(0, dtype=np.int64)


def build_search_query(normalized: dict) -> SearchQuery:
    """The :class:`SearchQuery` equivalent of a normalized search request."""
    since = (
        _dt.date.fromisoformat(normalized["since"]) if normalized["since"] else None
    )
    until = (
        _dt.date.fromisoformat(normalized["until"]) if normalized["until"] else None
    )
    kind, term = normalized["kind"], normalized["term"]
    if kind == "q":
        return SearchQuery(phrases=(term,), since=since, until=until)
    if kind == "hashtag":
        return SearchQuery(hashtags=(term,), since=since, until=until)
    return SearchQuery(url_domains=(term,), since=since, until=until)


def _window_ordinals(normalized: dict) -> tuple[int, int]:
    """Inclusive ``(lo, hi)`` day-ordinal bounds of a normalized window."""
    since, until = normalized["since"], normalized["until"]
    lo = _dt.date.fromisoformat(since).toordinal() if since else _ORD_MIN
    hi = _dt.date.fromisoformat(until).toordinal() if until else _ORD_MAX
    return lo, hi


def _in_window(rows: np.ndarray, days: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """The ``rows`` whose day ordinal lies in ``[lo, hi]``, order kept."""
    picked = days[rows]
    return rows[(picked >= lo) & (picked <= hi)]


def _page(rows: np.ndarray, normalized: dict) -> np.ndarray:
    offset = normalized["offset"]
    return rows[offset : offset + normalized["limit"]]


# -- payload shapes (shared with the test oracle) ------------------------------


def _search_payload(normalized: dict, total: int, rows: list[dict]) -> dict:
    return {"endpoint": "search", "params": normalized, "total": total, "rows": rows}


def _timeline_payload(normalized: dict, total: int, rows: list[dict]) -> dict:
    return {"endpoint": "timeline", "params": normalized, "total": total, "rows": rows}


def _instances_payload(normalized: dict, total: int, rows: list[dict]) -> dict:
    return {"endpoint": "instances", "params": normalized, "total": total, "rows": rows}


def _instance_payload(domain: str, users: int, weekly: list[dict]) -> dict:
    return {"endpoint": "instance", "domain": domain, "users": users, "weekly": weekly}


def _trends_payload(trends: dict, normalized: dict) -> dict:
    term = normalized["term"]
    terms = sorted(trends)
    if term is not None:
        canonical = {t.lower(): t for t in trends}
        matched = canonical.get(term)
        if matched is None:
            raise RequestError(404, f"unknown trend term: {term}")
        terms = [matched]
    return {
        "endpoint": "trends",
        "params": normalized,
        "terms": terms,
        "series": {t: trends[t] for t in terms},
    }


def _rank_instances(populations: dict[str, int]) -> list[tuple[str, int]]:
    return sorted(populations.items(), key=lambda kv: (-kv[1], kv[0]))


# -- columnar read models ------------------------------------------------------


class TimelineColumns:
    """One platform's timeline table, read in place (no column is copied)."""

    def __init__(
        self, table: TimelineTable, day_iso: list[str], label_key: str, flag_key: str
    ) -> None:
        self.days = table.day_ordinals
        self.day_iso = day_iso
        self.texts = table.texts
        self.labels = table.labels
        self.label_ids = table.label_ids
        self.flags = table.flags
        self.row_uids = table.row_uids
        self.label_key = label_key
        self.flag_key = flag_key

    def rows(self, page: np.ndarray) -> list[dict]:
        """Timeline payload rows of the table rows in ``page``."""
        day_iso, texts, labels = self.day_iso, self.texts, self.labels
        label_key, flag_key = self.label_key, self.flag_key
        return [
            {
                "day": day_iso[pos],
                "text": texts[pos],
                label_key: labels[label],
                flag_key: flag,
            }
            for pos, label, flag in zip(
                page.tolist(),
                self.label_ids[page].tolist(),
                self.flags[page].tolist(),
            )
        ]


def _corpus_ids(tweets) -> np.ndarray:
    return np.fromiter((t.tweet_id for t in tweets), np.int64, len(tweets))


def _ascending(ids: np.ndarray) -> np.ndarray:
    if not np.all(ids[1:] > ids[:-1]):
        # collection sorts the corpus by id; positions come from searchsorted
        raise ValueError("the collected corpus must ascend strictly by tweet id")
    return ids


class TweetSearchColumns:
    """The §3.1 collected corpus: an id and a day column plus its index.

    Corpus ids ascend (collection sorts the corpus by id), so the index's
    candidate ids map to corpus positions with one ``searchsorted``; page
    rows are read off the corpus tweets themselves, their days through the
    ISO strings of the corpus's distinct days.
    """

    def __init__(self, dataset, frames) -> None:
        self.tweets = dataset.collected_tweets
        self.ids = _ascending(_corpus_ids(self.tweets))
        self._set_days(frames.collected_day_ordinals)
        self.index = TweetIndex()
        self.index.add_many(self.tweets, None)

    def _set_days(self, days: np.ndarray) -> None:
        self.days = days
        distinct, self.day_codes = np.unique(days, return_inverse=True)
        self.day_labels = iso_day_strings(distinct)

    def extend(self, dataset, frames) -> None:
        """Append corpus rows past the already-indexed prefix.

        Valid only when the existing rows are a verified prefix of the
        advanced corpus (``delta.corpus_prefix == len(self.ids)``): the
        id column grows, the day column is the rebased frames', and the
        inverted index absorbs just the fresh tweets.
        """
        tweets = dataset.collected_tweets
        fresh = tweets[len(self.ids) :]
        self.tweets = tweets
        self._set_days(frames.collected_day_ordinals)
        if not fresh:
            return
        self.ids = _ascending(np.concatenate([self.ids, _corpus_ids(fresh)]))
        self.index.add_many(fresh, None)

    def positions(self, query: SearchQuery) -> np.ndarray:
        """Candidate corpus positions for ``query``, ascending by tweet id.

        Hashtag and domain candidates are exact (the planner guarantees no
        false positives for a single term); phrase candidates are a superset
        that the caller verifies.  An unindexable phrase takes every row.
        """
        candidates = self.index.candidates(query)
        if candidates is None:
            return np.arange(len(self.ids))
        return np.searchsorted(self.ids, np.array(candidates, dtype=np.int64))

    def holding(self, rows: np.ndarray, term: str) -> np.ndarray:
        """Mask over ``rows``: the tweets whose lowered text holds ``term``."""
        tweets = self.tweets
        return np.array(
            [term in tweets[pos].text_lower for pos in rows.tolist()], dtype=bool
        )

    def rows(self, page: np.ndarray) -> list[dict]:
        tweets, labels = self.tweets, self.day_labels
        return [
            {
                "id": t.tweet_id,
                "author_id": t.author_id,
                "day": labels[code],
                "text": t.text,
                "source": t.source,
                "is_retweet": t.is_retweet,
            }
            for t, code in zip(
                map(tweets.__getitem__, page.tolist()), self.day_codes[page].tolist()
            )
        ]


def _tag_postings(table: TimelineTable) -> dict[str, np.ndarray]:
    """Normalized tag -> ascending status rows carrying it, each row once."""
    stride = max(table.row_count, 1)
    keys = np.unique(table.tag_ids.astype(np.int64) * stride + table.tag_rows)
    tag_of = keys // stride
    rows = keys - tag_of * stride
    bounds = np.searchsorted(tag_of, np.arange(len(table.tags) + 1)).tolist()
    return {
        tag: rows[bounds[i] : bounds[i + 1]]
        for i, tag in enumerate(table.tags)
        if bounds[i] < bounds[i + 1]
    }


class StatusSearchColumns:
    """Lowered texts plus hashtag and token postings over the status table.

    Token postings list, per ``status_tokens`` vocabulary entry, the rows
    whose tokens hold it (``token_rows[token_bounds[t]:token_bounds[t + 1]]``,
    ascending, a row once per occurrence).  A phrase's candidates are the
    rows of the tokens :func:`~repro.twitter.index.phrase_options` selects,
    plus every row with a URL, whose text ``tokenize`` strips; each
    candidate is then verified against its lowered text.
    """

    def __init__(
        self, columns: TimelineColumns, table: TimelineTable, tokens: TokenTable
    ) -> None:
        self.columns = columns
        self.texts_lower = [t.lower() for t in table.texts]
        self.row_count = len(self.texts_lower)
        self.url_rows = np.array(
            [
                row
                for row, text in enumerate(self.texts_lower)
                if "://" in text and ("http://" in text or "https://" in text)
            ],
            dtype=np.int64,
        )
        self.tag_rows = _tag_postings(table)
        vocab = tokens.vocab
        self.token_ids = {token: i for i, token in enumerate(vocab)}
        # a stable radix argsort needs the narrowest type holding every id
        ids = tokens.flat.astype(np.min_scalar_type(max(len(vocab) - 1, 0)))
        row_of = np.repeat(
            np.arange(self.row_count, dtype=np.min_scalar_type(self.row_count)),
            np.diff(tokens.offsets),
        )
        self.token_rows = row_of[np.argsort(ids, kind="stable")]
        counts = np.bincount(ids, minlength=len(vocab))
        self.token_bounds = [0, *np.cumsum(counts).tolist()]

    def phrase_candidates(self, term: str) -> np.ndarray:
        """Ascending rows that may hold ``term``: a superset of the matches."""
        options = phrase_options(term)
        if options is None:  # no token to look up: every row is a candidate
            return np.arange(self.row_count)
        bounds, token_ids = self.token_bounds, self.token_ids
        picked = min(
            (
                [token_ids[token] for token in matching_tokens(token_ids, mode, word)]
                for mode, word in options
            ),
            key=lambda ids: sum(bounds[t + 1] - bounds[t] for t in ids),
        )
        mask = np.zeros(self.row_count, dtype=bool)
        for t in picked:
            mask[self.token_rows[bounds[t] : bounds[t + 1]]] = True
        mask[self.url_rows] = True
        return np.flatnonzero(mask)

    def holding(self, rows: np.ndarray, term: str) -> np.ndarray:
        """Mask over ``rows``: the statuses whose lowered text holds ``term``."""
        texts = self.texts_lower
        return np.array([term in texts[pos] for pos in rows.tolist()], dtype=bool)

    def rows(self, page: np.ndarray) -> list[dict]:
        columns = self.columns
        day_iso, texts, labels = columns.day_iso, columns.texts, columns.labels
        return [
            {
                "uid": uid,
                "day": day_iso[pos],
                "text": texts[pos],
                "application": labels[label],
                "is_boost": flag,
            }
            for pos, uid, label, flag in zip(
                page.tolist(),
                columns.row_uids[page].tolist(),
                columns.label_ids[page].tolist(),
                columns.flags[page].tolist(),
            )
        ]


class ColumnarViews:
    """The warm serving path: every endpoint answered from flat columns."""

    def __init__(self, dataset) -> None:
        self.dataset = dataset
        self.frames = frames_of(dataset)
        self._models: dict[str, object] = {}

    # -- warmup ----------------------------------------------------------------

    def _model(self, name: str, builder: Callable[[], object]):
        found = self._models.get(name)
        if found is None:
            with obs.current().span(f"serving.warm.{name}"):
                found = self._models[name] = builder()
        return found

    def _tweet_search(self) -> TweetSearchColumns:
        return self._model(
            "tweet_search", lambda: TweetSearchColumns(self.dataset, self.frames)
        )

    def _timeline(self, platform: str) -> TimelineColumns:
        frames = self.frames
        if platform == "twitter":
            return self._model(
                "twitter_timeline",
                lambda: TimelineColumns(
                    frames.tweet_table, frames.tweet_day_iso, "source", "is_retweet"
                ),
            )
        return self._model(
            "mastodon_timeline",
            lambda: TimelineColumns(
                frames.status_table, frames.status_day_iso, "application", "is_boost"
            ),
        )

    def _status_search(self) -> StatusSearchColumns:
        return self._model(
            "status_search",
            lambda: StatusSearchColumns(
                self._timeline("mastodon"),
                self.frames.status_table,
                self.frames.status_tokens,
            ),
        )

    def _directory(self) -> list[tuple[str, int]]:
        return self._model(
            "directory", lambda: _rank_instances(self.frames.instance_populations)
        )

    def warm(self) -> dict[str, float]:
        """Build every read model now; per-model build seconds by name."""
        timings: dict[str, float] = {}
        builders: list[tuple[str, Callable[[], object]]] = [
            ("tweet_search", self._tweet_search),
            ("twitter_timeline", lambda: self._timeline("twitter")),
            ("mastodon_timeline", lambda: self._timeline("mastodon")),
            ("status_search", self._status_search),
            ("directory", self._directory),
        ]
        for name, build in builders:
            started = time.perf_counter()
            build()
            timings[name] = time.perf_counter() - started
        return timings

    def swap(self, dataset, delta, frames) -> dict[str, str]:
        """Point at an advanced dataset, carrying still-valid read models.

        ``frames`` is the rebased :class:`DatasetFrames` of ``dataset``;
        ``delta`` the advance's change receipt.  A read model survives
        exactly when every dataset domain it reads is untouched; the
        tweet-search block additionally grows in place on a pure corpus
        append.  Returns ``model -> "kept" | "extended" | "dropped"``.
        """
        from repro.frames.core import PRODUCT_DEPS

        old_models = self._models
        self.dataset = dataset
        self.frames = frames
        self._models = {}
        changed = delta.domains_changed()
        outcome: dict[str, str] = {}

        def carry(name: str, domains: set[str]) -> None:
            model = old_models.get(name)
            if model is None:
                return
            if domains & changed:
                outcome[name] = "dropped"
                return
            self._models[name] = model
            outcome[name] = "kept"

        corpus = old_models.get("tweet_search")
        if corpus is not None:
            if "corpus" not in changed:
                self._models["tweet_search"] = corpus
                outcome["tweet_search"] = "kept"
            elif delta.corpus_prefix == len(corpus.ids):
                corpus.extend(dataset, frames)
                self._models["tweet_search"] = corpus
                outcome["tweet_search"] = "extended"
            else:
                outcome["tweet_search"] = "dropped"
        carry("twitter_timeline", {"twitter_timelines"})
        carry("mastodon_timeline", {"mastodon_timelines"})
        carry("status_search", {"mastodon_timelines"})
        carry("directory", set(PRODUCT_DEPS["instance_populations"]))
        return outcome

    # -- endpoints -------------------------------------------------------------

    def compute(self, endpoint: str, normalized: dict) -> dict:
        if endpoint == "search":
            return self.search(normalized)
        if endpoint == "timeline":
            return self.timeline(normalized)
        if endpoint == "instances":
            return self.instances(normalized)
        if endpoint == "instance":
            return self.instance(normalized)
        if endpoint == "trends":
            return _trends_payload(self.dataset.trends, normalized)
        raise RequestError(404, f"no handler for endpoint {endpoint!r}")

    def search(self, normalized: dict) -> dict:
        lo, hi = _window_ordinals(normalized)
        kind, term = normalized["kind"], normalized["term"]
        if normalized["platform"] == "twitter":
            corpus = self._tweet_search()
            hits = _in_window(
                corpus.positions(build_search_query(normalized)), corpus.days, lo, hi
            )
            if kind == "q":
                hits = hits[corpus.holding(hits, term)]
            return _search_payload(
                normalized, int(hits.size), corpus.rows(_page(hits, normalized))
            )
        statuses = self._status_search()
        if kind == "hashtag":
            candidates = statuses.tag_rows.get(term, _NO_ROWS)
        else:
            candidates = statuses.phrase_candidates(term)
        hits = _in_window(candidates, statuses.columns.days, lo, hi)
        if kind == "q":
            hits = hits[statuses.holding(hits, term)]
        return _search_payload(
            normalized, int(hits.size), statuses.rows(_page(hits, normalized))
        )

    def timeline(self, normalized: dict) -> dict:
        platform, uid = normalized["platform"], normalized["uid"]
        columns = self._timeline(platform)
        span = self.frames.timeline_offsets[platform].get(uid)
        if span is None:
            raise RequestError(404, f"uid {uid} has no {platform} timeline")
        lo, hi = _window_ordinals(normalized)
        start, stop = span
        days = columns.days[start:stop]
        hits = np.flatnonzero((days >= lo) & (days <= hi)) + start
        return _timeline_payload(
            normalized, int(hits.size), columns.rows(_page(hits, normalized))
        )

    def instances(self, normalized: dict) -> dict:
        ranked = self._directory()
        offset, limit = normalized["offset"], normalized["limit"]
        rows = [
            {"domain": domain, "users": users}
            for domain, users in ranked[offset : offset + limit]
        ]
        return _instances_payload(normalized, len(ranked), rows)

    def instance(self, normalized: dict) -> dict:
        domain = normalized["domain"]
        users = self.frames.instance_populations.get(domain)
        weekly = self.dataset.weekly_activity.get(domain)
        if users is None and weekly is None:
            raise RequestError(404, f"unknown instance: {domain}")
        return _instance_payload(domain, users or 0, weekly or [])
