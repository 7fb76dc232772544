"""Inverted indexes over the tweet archive and the search query planner.

The §3.1 full-archive searches — instance-link queries over ~16k domains
and the migration keyword/hashtag query — were scans: every
``SearchQuery`` walked every tweet, making collection O(tweets × queries).
This module turns them into postings-list lookups:

- **hashtag postings**: normalized tag → sorted tweet ids;
- **domain postings**: every URL host *and each dot-suffix with ≥ 2
  labels* → sorted tweet ids, so ``url:"example.com"`` finds
  ``social.example.com`` links without per-tweet suffix walks;
- **token postings**: every ``[a-z0-9']+`` token of the lowered raw text
  → sorted tweet ids, the candidate source for phrase terms.

Phrase terms approximate Twitter's quoted-phrase operator as a substring
match, which a token index cannot answer exactly — but it can produce a
guaranteed *superset* of candidates that the real ``SearchQuery.matches``
then verifies (the planner's contract: no false negatives, false positives
are fine).  The superset argument: tokens are maximal ``[a-z0-9']+`` runs,
and the phrase is tokenized with the same alphabet, so

- any *internal* phrase token (separator-bounded on both sides inside the
  phrase) must appear verbatim as a token of any text containing the
  phrase — exact postings lookup;
- a phrase-*leading* token can only be extended leftward in the text, so
  it appears as a token **suffix**; a phrase-*trailing* token appears as a
  token **prefix**; a single-token phrase appears **inside** some token.
  These need a pass over the distinct-token vocabulary (small, cached per
  archive version) rather than the archive itself.

A phrase with no tokens at all (pure punctuation) is unindexable: the
planner refuses and the API falls back to the linear scan, as it does for
pure date-window queries.

Postings lists are append-only during the build and consulted only once
writes stop (collection time): the write path just appends, and each list
is re-sorted lazily on its first lookup after any write (a per-key
*clean* set, wiped on every version bump, remembers which lists are
already sorted — ids arrive near-chronologically, so most of those sorts
are timsort's O(n) already-sorted fast path).
"""

from __future__ import annotations

import re

from repro import obs
from repro.twitter.models import Tweet
from repro.twitter.search import SearchQuery

_TOKEN_RE = re.compile(r"[a-z0-9']+")
_findall = _TOKEN_RE.findall

_EMPTY: list[int] = []


def phrase_options(phrase: str) -> list[tuple[str, str]] | None:
    """The superset rules for one lowered phrase, as ``(mode, word)`` options.

    Each option alone selects a superset of the texts holding ``phrase``:
    ``"token"`` — ``word`` is an internal phrase token, so it is a token of
    the text; ``"suffix"`` / ``"prefix"`` — the phrase-leading (trailing)
    token is a suffix (prefix) of a text token; ``"inside"`` — a
    single-token phrase sits inside a text token.  Callers take the option
    with the fewest postings.  ``None`` means the phrase has no token and
    is unindexable.
    """
    tokens = list(_TOKEN_RE.finditer(phrase))
    if not tokens:
        return None
    end = len(phrase)
    internal = [
        ("token", m.group()) for m in tokens if m.start() > 0 and m.end() < end
    ]
    if internal:
        return internal
    options: list[tuple[str, str]] = []
    first, last = tokens[0], tokens[-1]
    if first.start() == 0:
        mode = "inside" if first.end() == end else "suffix"
        options.append((mode, first.group()))
    if last.end() == end and last.start() > 0:
        options.append(("prefix", last.group()))
    return options


def matching_tokens(vocabulary: dict[str, object], mode: str, word: str) -> list[str]:
    """The tokens of ``vocabulary`` one :func:`phrase_options` option selects."""
    if mode == "token":
        return [word] if word in vocabulary else []
    if mode == "suffix":
        return [v for v in vocabulary if v.endswith(word)]
    if mode == "prefix":
        return [v for v in vocabulary if v.startswith(word)]
    return [v for v in vocabulary if word in v]


class TweetIndex:
    """Incrementally-maintained inverted indexes plus the query planner."""

    def __init__(self) -> None:
        self._tags: dict[str, list[int]] = {}
        self._domains: dict[str, list[int]] = {}
        self._tokens: dict[str, list[int]] = {}
        # keys whose postings list is known sorted at the current version;
        # wiped on every version bump so lookups re-sort lazily after writes
        self._clean_tags: set[str] = set()
        self._clean_domains: set[str] = set()
        self._clean_tokens: set[str] = set()
        #: bumped on every add; invalidates cached query plans
        self._version = 0
        self._plan_cache: dict[SearchQuery, list[int] | None] = {}
        self._plan_cache_version = -1
        # local plan-cache accounting, mirrored to the active obs registry
        self._plan_hits = 0
        self._plan_misses = 0

    # -- maintenance -------------------------------------------------------

    def _bump_version(self) -> None:
        self._version += 1
        if self._clean_tokens:
            self._clean_tokens.clear()
        if self._clean_tags:
            self._clean_tags.clear()
        if self._clean_domains:
            self._clean_domains.clear()

    def add(self, tweet: Tweet) -> None:
        """Index one tweet (called by ``TwitterStore.add_tweet``).

        The three postings loops are inlined: with ~20 distinct keys per
        tweet this method runs once per archived tweet and is the store's
        hottest write path.
        """
        tweet_id = tweet.tweet_id
        groups: list[tuple[dict[str, list[int]], frozenset[str] | set[str]]] = [
            (self._tokens, set(_findall(tweet.text_lower)))
        ]
        if tweet.tags_normalized:
            groups.append((self._tags, tweet.tags_normalized))
        if tweet.domain_keys:
            groups.append((self._domains, tweet.domain_keys))
        for postings, keys in groups:
            get = postings.get
            for key in keys:
                ids = get(key)
                if ids is None:
                    postings[key] = [tweet_id]
                else:
                    ids.append(tweet_id)
        self._bump_version()

    def add_precomputed(self, tweet: Tweet, tokens: frozenset[str]) -> None:
        """Index one tweet whose token set the caller already holds.

        Caller contract: ``tokens`` equals
        ``set(_TOKEN_RE.findall(tweet.text_lower))`` exactly — the batched
        generator derives it from the same alphabet while building the
        text, and falls back to :meth:`add` when it cannot guarantee the
        equality.  Anything looser would break the planner's
        no-false-negatives contract.
        """
        tweet_id = tweet.tweet_id
        groups: list[tuple[dict[str, list[int]], frozenset[str]]] = [
            (self._tokens, tokens)
        ]
        if tweet.tags_normalized:
            groups.append((self._tags, tweet.tags_normalized))
        if tweet.domain_keys:
            groups.append((self._domains, tweet.domain_keys))
        for postings, keys in groups:
            get = postings.get
            for key in keys:
                ids = get(key)
                if ids is None:
                    postings[key] = [tweet_id]
                else:
                    ids.append(tweet_id)
        self._bump_version()

    def add_many(
        self,
        tweets: list[Tweet],
        token_sets: list[frozenset[str] | None] | None,
    ) -> None:
        """Index a batch of tweets in order (the bulk write path).

        ``token_sets[i]``, when not ``None``, carries
        :meth:`add_precomputed`'s exactness contract; ``None`` entries (or
        ``token_sets is None``) take the regex derivation.  State after the
        call matches per-tweet :meth:`add` calls except that the plan-cache
        version advances once per batch — the cache only distinguishes
        stale from fresh, so batch granularity is equivalent.
        """
        tokens_postings = self._tokens
        tags_postings = self._tags
        domains_postings = self._domains
        # EAFP postings insert: the miss (KeyError) happens once per distinct
        # key, the hit path is a plain subscript + append — measurably
        # cheaper than a .get call per (tweet, key) pair at archive scale
        for i, tweet in enumerate(tweets):
            tweet_id = tweet.tweet_id
            keys = token_sets[i] if token_sets is not None else None
            if keys is None:
                keys = set(_findall(tweet.text_lower))
            for key in keys:
                try:
                    tokens_postings[key].append(tweet_id)
                except KeyError:
                    tokens_postings[key] = [tweet_id]
            if tweet.tags_normalized:
                for key in tweet.tags_normalized:
                    try:
                        tags_postings[key].append(tweet_id)
                    except KeyError:
                        tags_postings[key] = [tweet_id]
            if tweet.domain_keys:
                for key in tweet.domain_keys:
                    try:
                        domains_postings[key].append(tweet_id)
                    except KeyError:
                        domains_postings[key] = [tweet_id]
        self._bump_version()

    def _postings(
        self, postings: dict[str, list[int]], clean: set[str], key: str
    ) -> list[int]:
        ids = postings.get(key)
        if ids is None:
            return _EMPTY
        if key not in clean:
            # first lookup since the last write: restore the sorted-order
            # invariant (near-chronological appends make this mostly a
            # no-op pass for timsort)
            ids.sort()
            clean.add(key)
        return ids

    # -- planning ----------------------------------------------------------

    def candidates(self, query: SearchQuery) -> list[int] | None:
        """Sorted candidate tweet ids for ``query``, or ``None`` to scan.

        The result is a superset of the tweets whose *content terms* match;
        window and author restrictions are left to ``SearchQuery.matches``
        during verification.  ``None`` means the query has no indexable
        content terms and must be answered by the caller another way.
        """
        if not query.has_content_terms:
            return None
        if self._plan_cache_version != self._version:
            self._plan_cache.clear()
            self._plan_cache_version = self._version
        if query in self._plan_cache:
            self._plan_hits += 1
            obs.current().counter("twitter.index.plan_cache", outcome="hit").inc()
            return self._plan_cache[query]
        self._plan_misses += 1
        obs.current().counter("twitter.index.plan_cache", outcome="miss").inc()
        plan = self._plan(query)
        self._plan_cache[query] = plan
        return plan

    def _plan(self, query: SearchQuery) -> list[int] | None:
        lists: list[list[int]] = []
        for tag in query._tag_set:
            lists.append(self._postings(self._tags, self._clean_tags, tag))
        for domain in query._domain_set:
            lists.append(self._postings(self._domains, self._clean_domains, domain))
        for phrase in query._lowered_phrases:
            phrase_lists = self._phrase_postings(phrase)
            if phrase_lists is None:
                return None  # unindexable phrase: the whole query scans
            lists.extend(phrase_lists)
        if len(lists) == 1:
            # one postings list is already sorted and holds each id once (a
            # tweet's keys are a set, and the store rejects duplicate ids);
            # copied because later writes append to it
            return list(lists[0])
        merged: set[int] = set()
        merged.update(*lists)
        return sorted(merged)

    def _phrase_postings(self, phrase: str) -> list[list[int]] | None:
        """Candidate postings lists for one (lowered) phrase term."""
        options = phrase_options(phrase)
        if options is None:
            return None
        return min(
            (
                [
                    self._postings(self._tokens, self._clean_tokens, token)
                    for token in matching_tokens(self._tokens, mode, word)
                ]
                for mode, word in options
            ),
            key=lambda lists: sum(len(ids) for ids in lists),
        )

    # -- introspection -----------------------------------------------------

    @property
    def stats(self) -> dict[str, int]:
        """Index sizes and plan-cache accounting (observability + benchmarks)."""
        return {
            "tags": len(self._tags),
            "domains": len(self._domains),
            "tokens": len(self._tokens),
            "version": self._version,
            "plan_entries": len(self._plan_cache),
            "plan_hits": self._plan_hits,
            "plan_misses": self._plan_misses,
        }
