"""Lazily-materialized, memoized columnar frames over a dataset.

:class:`DatasetFrames` is the shared analysis substrate: the first analysis
that needs a column table or a derived product (per-day volume vectors,
token tables, compact embedding rows, toxicity score vectors) builds it under an
``obs`` span (``frames.<product>``); every later analysis — and the headline
report, which re-runs the same figures — reuses it.

Memoization contract (see DESIGN.md §5):

- Frames are cached on the dataset instance itself (``dataset._frames``)
  and assume the dataset is **not mutated** after the first analysis runs;
  mutate-then-analyze callers must call :func:`invalidate` in between.
- Derived products and result-cache entries are keyed by the *default*
  operators only: an analysis called with a custom encoder/scorer runs it
  over the shared token tables, uncached, and neither reads nor writes
  the default operator's entries.
- Exactness is part of the contract: every frames-backed analysis returns
  byte-identical results to its per-object oracle in ``tests/oracles/``
  (same floats, same ordering), enforced by ``tests/frames/``.
"""

from __future__ import annotations

import dataclasses
import weakref
from typing import Any, Callable, TypeVar

import numpy as np

from repro import obs
from repro.collection.weekly_activity import aggregate_weeks
from repro.errors import AnalysisError
from repro.frames.tables import (
    EdgeTable,
    ProfileTable,
    RowMap,
    TimelineTable,
    TokenTable,
    build_edge_table,
    build_profile_table,
    build_timeline_table,
    build_token_table,
    iso_day_strings,
    rebase_timeline_table,
    rebase_token_table,
    splice_ragged,
)
from repro.nlp.embeddings import EmbeddingRows, HashingSentenceEncoder
from repro.nlp.toxicity import PerspectiveScorer
from repro.util.text import row_positions

T = TypeVar("T")

#: Dataset input domains each product is built from.  Domain names match
#: :meth:`repro.collection.delta.DatasetDelta.domains_changed`.
PRODUCT_DEPS: dict[str, frozenset[str]] = {
    "tweet_table": frozenset({"twitter_timelines"}),
    "status_table": frozenset({"mastodon_timelines"}),
    "collected_days": frozenset({"corpus"}),
    "timeline_offsets": frozenset({"twitter_timelines", "mastodon_timelines"}),
    "tweet_day_iso": frozenset({"twitter_timelines"}),
    "status_day_iso": frozenset({"mastodon_timelines"}),
    "profile_table": frozenset({"matched", "accounts"}),
    "edge_table": frozenset({"followees"}),
    "instance_populations": frozenset({"matched"}),
    "weekly_aggregate": frozenset({"weekly"}),
    "tweet_tokens": frozenset({"twitter_timelines"}),
    "status_tokens": frozenset({"mastodon_timelines"}),
    "tweet_toxicity": frozenset({"twitter_timelines"}),
    "status_toxicity": frozenset({"mastodon_timelines"}),
    "tweet_embeddings": frozenset({"twitter_timelines"}),
    "status_embeddings": frozenset({"mastodon_timelines"}),
}

#: Products that must be dropped when the keyed product is invalidated.
PRODUCT_DEPENDENTS: dict[str, tuple[str, ...]] = {
    "tweet_table": ("tweet_tokens", "tweet_day_iso", "timeline_offsets"),
    "status_table": ("status_tokens", "status_day_iso", "timeline_offsets"),
    "tweet_tokens": ("tweet_toxicity", "tweet_embeddings"),
    "status_tokens": ("status_toxicity", "status_embeddings"),
    "profile_table": ("instance_populations",),
}

#: Dataset input domains per result-cache key family (``key[0]``;
#: ``tag_counts`` keys are specialised by platform, ``key[:2]``).  A key
#: absent here has unknown inputs and is dropped conservatively on any
#: domain-scoped invalidation.
RESULT_DEPS: dict[tuple, frozenset[str]] = {
    ("daily_volume",): frozenset({"twitter_timelines", "mastodon_timelines"}),
    ("collected_per_day",): frozenset({"corpus"}),
    ("content_similarity",): frozenset(
        {"twitter_timelines", "mastodon_timelines"}
    ),
    ("tag_counts", "twitter"): frozenset({"twitter_timelines"}),
    ("tag_counts", "mastodon"): frozenset({"mastodon_timelines"}),
    ("instance_stats",): frozenset({"matched", "accounts"}),
    ("network_structure",): frozenset({"followees", "matched"}),
    ("top_sources",): frozenset({"twitter_timelines", "mastodon_timelines"}),
    ("crossposter_daily_users",): frozenset(
        {"twitter_timelines", "mastodon_timelines"}
    ),
    ("switcher_influence",): frozenset({"accounts", "followees", "matched"}),
    ("toxicity_analysis",): frozenset(
        {"twitter_timelines", "mastodon_timelines"}
    ),
    ("moderation_load",): frozenset({"mastodon_timelines", "matched"}),
    ("retention",): frozenset(
        {"matched", "accounts", "twitter_timelines", "mastodon_timelines"}
    ),
}


def result_deps(key: tuple) -> frozenset[str] | None:
    """Input domains of a result-cache key, or None when unknown."""
    if not isinstance(key, tuple) or not key:
        return None
    found = RESULT_DEPS.get(key[:2])
    if found is not None:
        return found
    return RESULT_DEPS.get(key[:1])


class DatasetFrames:
    """Columnar tables and derived products of one ``MigrationDataset``."""

    def __init__(self, dataset) -> None:
        # weak: frames_of() keeps the frames on the dataset, and a strong
        # reference back would make a cycle that only the cyclic collector
        # frees, keeping every superseded daily snapshot alive until it runs
        self._dataset = weakref.ref(dataset)
        self._products: dict[str, Any] = {}
        self._results: dict[Any, Any] = {}
        # local result-cache accounting (mirrored to the active obs registry
        # by ``result``; kept here too so the counts survive registry swaps)
        self._result_hits = 0
        self._result_misses = 0
        self._invalidations = 0
        # Default operators of the cached NLP products; a custom operator
        # runs over the token tables without touching these products.
        self._scorer = PerspectiveScorer()
        self._encoder = HashingSentenceEncoder()

    @property
    def dataset(self):
        """The dataset these frames describe.

        Held weakly: frames kept past their dataset raise here.
        """
        dataset = self._dataset()
        if dataset is None:
            raise AnalysisError("these frames outlived their dataset")
        return dataset

    def _product(self, name: str, builder: Callable[[], T]) -> T:
        found = self._products.get(name)
        if found is None:
            with obs.current().span(f"frames.{name}"):
                found = builder()
            self._products[name] = found
        return found

    def result(self, key: tuple, builder: Callable[[], T]) -> T:
        """Memoize a whole analysis result under its parameter key.

        The headline report re-runs several figures with their default
        parameters; caching at the result level makes those re-runs free.
        """
        found = self._results.get(key)
        if found is None:
            self._result_misses += 1
            obs.current().counter("frames.result_cache", outcome="miss").inc()
            found = builder()
            self._results[key] = found
        else:
            self._result_hits += 1
            obs.current().counter("frames.result_cache", outcome="hit").inc()
        return found

    # -- column tables ---------------------------------------------------------

    @property
    def tweet_table(self) -> TimelineTable:
        return self._product(
            "tweet_table",
            lambda: build_timeline_table(
                self.dataset.twitter_timelines, "source", "is_retweet"
            ),
        )

    @property
    def status_table(self) -> TimelineTable:
        return self._product(
            "status_table",
            lambda: build_timeline_table(
                self.dataset.mastodon_timelines,
                "application",
                "is_boost",
                "account_acct",
            ),
        )

    @property
    def collected_day_ordinals(self) -> np.ndarray:
        """Day ordinal per §3.1 collected tweet, corpus order."""
        return self._product(
            "collected_days",
            lambda: np.asarray(
                [
                    t.created_date.toordinal()
                    for t in self.dataset.collected_tweets
                ],
                dtype=np.int64,
            ),
        )

    @property
    def timeline_offsets(self) -> dict[str, dict[int, tuple[int, int]]]:
        """Per-platform ``uid -> (start, stop)`` timeline row ranges.

        The serving layer's per-account CSR map: a timeline request is one
        dict lookup plus an array slice, no per-post objects touched.
        """
        return self._product(
            "timeline_offsets",
            lambda: {
                "twitter": self.tweet_table.slices,
                "mastodon": self.status_table.slices,
            },
        )

    @property
    def tweet_day_iso(self) -> list[str]:
        """ISO day string per tweet-table row (serving payload column)."""
        return self._product(
            "tweet_day_iso",
            lambda: iso_day_strings(self.tweet_table.day_ordinals),
        )

    @property
    def status_day_iso(self) -> list[str]:
        """ISO day string per status-table row (serving payload column)."""
        return self._product(
            "status_day_iso",
            lambda: iso_day_strings(self.status_table.day_ordinals),
        )

    @property
    def profile_table(self) -> ProfileTable:
        return self._product(
            "profile_table", lambda: build_profile_table(self.dataset)
        )

    @property
    def edge_table(self) -> EdgeTable:
        return self._product(
            "edge_table", lambda: build_edge_table(self.dataset)
        )

    @property
    def instance_populations(self) -> dict[str, int]:
        """Matched migrants per (first) instance domain."""

        def build() -> dict[str, int]:
            table = self.profile_table
            counts = np.bincount(
                table.matched_domain_ids, minlength=len(table.domains)
            )
            return {
                domain: int(counts[i])
                for i, domain in enumerate(table.domains)
                if counts[i]
            }

        return self._product("instance_populations", build)

    @property
    def weekly_aggregate(self) -> list[dict]:
        """Per-week totals over ``weekly_activity``, sorted by week label."""
        return self._product(
            "weekly_aggregate",
            lambda: aggregate_weeks(self.dataset.weekly_activity),
        )

    # -- derived NLP products --------------------------------------------------

    @property
    def tweet_tokens(self) -> TokenTable:
        return self._product(
            "tweet_tokens", lambda: build_token_table(self.tweet_table.texts)
        )

    @property
    def status_tokens(self) -> TokenTable:
        return self._product(
            "status_tokens", lambda: build_token_table(self.status_table.texts)
        )

    @property
    def tweet_toxicity(self) -> np.ndarray:
        """Default-scorer toxicity per tweet row (== ``scorer.score`` each)."""

        def build() -> np.ndarray:
            tokens = self.tweet_tokens
            return self._scorer.score_tokenized(
                tokens.flat, tokens.offsets, tokens.vocab
            )

        return self._product("tweet_toxicity", build)

    @property
    def status_toxicity(self) -> np.ndarray:
        def build() -> np.ndarray:
            tokens = self.status_tokens
            return self._scorer.score_tokenized(
                tokens.flat, tokens.offsets, tokens.vocab
            )

        return self._product("status_toxicity", build)

    @property
    def tweet_embeddings(self) -> EmbeddingRows:
        """Default-encoder embedding rows over tweet rows (row == ``encode``).

        Compact rows, not a dense matrix: a text fills a dozen or so of the
        256 cells, so a dense matrix would be an order of magnitude larger.
        """

        def build() -> EmbeddingRows:
            tokens = self.tweet_tokens
            return self._encoder.encode_tokenized(
                tokens.flat, tokens.offsets, tokens.vocab
            )

        return self._product("tweet_embeddings", build)

    @property
    def status_embeddings(self) -> EmbeddingRows:
        def build() -> EmbeddingRows:
            tokens = self.status_tokens
            return self._encoder.encode_tokenized(
                tokens.flat, tokens.offsets, tokens.vocab
            )

        return self._product("status_embeddings", build)

    def build_stats(self) -> dict[str, int]:
        """Materialized products and their numpy array bytes.

        Python objects (text and vocabulary lists, dicts) are not counted.
        """
        return {
            name: _array_bytes(self._products[name])
            for name in sorted(self._products)
        }

    def cache_stats(self) -> dict:
        """Result-cache accounting (rendered by serving ``/metrics`` and bench)."""
        lookups = self._result_hits + self._result_misses
        return {
            "entries": len(self._results),
            "hits": self._result_hits,
            "misses": self._result_misses,
            "hit_rate": round(self._result_hits / lookups, 4) if lookups else 0.0,
            "products_built": len(self._products),
            "invalidations": self._invalidations,
        }

    # -- incremental maintenance -----------------------------------------------

    def invalidate(
        self,
        *,
        products: list[str] | None = None,
        analyses: list[str] | None = None,
        domains: set[str] | None = None,
    ) -> dict[str, int]:
        """Selectively drop cached products and/or result-cache entries.

        ``products`` names products to drop (their dependents — token
        tables under a timeline table, score/embedding vectors under a
        token table — go with them).  ``analyses`` names result-key
        families (``key[0]``) to drop.  ``domains`` drops every product
        *and* result whose input domains intersect the given dataset
        domains (the vocabulary of :data:`PRODUCT_DEPS`).

        Returns ``{"products": n, "results": m}``.  Dropped results are
        counted by the ``invalidations`` entry of :meth:`cache_stats`.
        """
        closure: set[str] = set()
        stack = list(products or ())
        if domains:
            stack.extend(
                name
                for name, deps in PRODUCT_DEPS.items()
                if deps & domains
            )
        while stack:
            name = stack.pop()
            if name in closure:
                continue
            closure.add(name)
            stack.extend(PRODUCT_DEPENDENTS.get(name, ()))
        dropped_products = 0
        for name in closure:
            if self._products.pop(name, None) is not None:
                dropped_products += 1
        # results stale through the same domains (plus explicit families)
        affected: set[str] = set(domains or ())
        for name in closure:
            affected |= PRODUCT_DEPS.get(name, frozenset())
        families = set(analyses or ())
        dropped_results = 0
        for key in list(self._results):
            family = key[0] if isinstance(key, tuple) and key else key
            if family in families:
                drop = True
            elif affected:
                deps = result_deps(key)
                drop = deps is None or bool(deps & affected)
            else:
                drop = False
            if drop:
                del self._results[key]
                dropped_results += 1
        if dropped_results:
            self._invalidations += dropped_results
            obs.current().counter(
                "frames.result_cache", outcome="invalidated"
            ).inc(dropped_results)
        return {"products": dropped_products, "results": dropped_results}

    def rebase(self, dataset, delta) -> "DatasetFrames":
        """Frames for ``dataset``, built by splicing this instance's caches.

        ``dataset`` must be the snapshot an :func:`repro.incremental.advance`
        produced from this frames' dataset, and ``delta`` that advance's
        :class:`~repro.collection.delta.DatasetDelta`.  Products whose input
        domains did not change are carried over verbatim; timeline tables,
        token tables and the per-row NLP vectors are spliced along the
        delta's kept-row maps (bit-identical to a cold build); everything
        else is dropped and lazily rebuilt.  Result-cache entries survive
        exactly when their input domains are untouched.
        """
        new = DatasetFrames(dataset)
        new._scorer = self._scorer
        new._encoder = self._encoder
        changed = delta.domains_changed()
        spliced = {
            "tweet_table",
            "status_table",
            "tweet_tokens",
            "status_tokens",
            "tweet_toxicity",
            "status_toxicity",
            "tweet_embeddings",
            "status_embeddings",
            "tweet_day_iso",
            "status_day_iso",
            "collected_days",
        }
        with obs.current().span("frames.rebase") as span:
            for side, label_attr, flag_attr, acct_attr, timelines, kept, domain in (
                (
                    "tweet",
                    "source",
                    "is_retweet",
                    None,
                    dataset.twitter_timelines,
                    delta.twitter_changed,
                    "twitter_timelines",
                ),
                (
                    "status",
                    "application",
                    "is_boost",
                    "account_acct",
                    dataset.mastodon_timelines,
                    delta.mastodon_changed,
                    "mastodon_timelines",
                ),
            ):
                side_products = (
                    f"{side}_table",
                    f"{side}_tokens",
                    f"{side}_toxicity",
                    f"{side}_embeddings",
                    f"{side}_day_iso",
                )
                old_table = self._products.get(f"{side}_table")
                if old_table is None:
                    continue
                if domain not in changed:
                    for name in side_products:
                        if name in self._products:
                            new._products[name] = self._products[name]
                    continue
                table, rowmap = rebase_timeline_table(
                    old_table, timelines, label_attr, flag_attr, kept, acct_attr
                )
                new._products[f"{side}_table"] = table
                old_tokens = self._products.get(f"{side}_tokens")
                if old_tokens is None:
                    continue
                tokens = rebase_token_table(old_tokens, rowmap, table.texts)
                new._products[f"{side}_tokens"] = tokens
                old_scores = self._products.get(f"{side}_toxicity")
                if old_scores is not None:
                    new._products[f"{side}_toxicity"] = _splice_rows(
                        old_scores, rowmap, tokens,
                        new._scorer.score_tokenized,
                    )
                old_emb = self._products.get(f"{side}_embeddings")
                if old_emb is not None:
                    new._products[f"{side}_embeddings"] = _splice_embeddings(
                        old_emb, rowmap, tokens, new._encoder
                    )
            old_days = self._products.get("collected_days")
            if old_days is not None:
                if "corpus" not in changed:
                    new._products["collected_days"] = old_days
                elif delta.corpus_prefix == len(old_days):
                    tail = np.asarray(
                        [
                            t.created_date.toordinal()
                            for t in dataset.collected_tweets[
                                delta.corpus_prefix :
                            ]
                        ],
                        dtype=np.int64,
                    )
                    new._products["collected_days"] = np.concatenate(
                        [old_days, tail]
                    )
            for name, value in self._products.items():
                if name in new._products or name in spliced:
                    continue
                deps = PRODUCT_DEPS.get(name)
                if deps is not None and not (deps & changed):
                    new._products[name] = value
            for key, value in self._results.items():
                deps = result_deps(key)
                if deps is not None and not (deps & changed):
                    new._results[key] = value
                else:
                    new._invalidations += 1
            span.annotate(
                changed=sorted(changed),
                carried_products=len(new._products),
                carried_results=len(new._results),
                invalidated_results=new._invalidations,
            )
        dataset.__dict__["_frames"] = new
        return new


def _array_bytes(value: Any) -> int:
    """Bytes of the numpy arrays in a product: an array or a table's fields."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    if dataclasses.is_dataclass(value):
        return sum(
            _array_bytes(getattr(value, f.name))
            for f in dataclasses.fields(value)
        )
    return 0


def _fresh_tokens(
    tokens: TokenTable, fresh: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The ``(flat, offsets)`` token subset of the rows ``fresh``.

    The per-row NLP operators are row-pure — a row depends only on its own
    token ids and the vocab strings — so running one over this subset
    yields rows bit-identical to a full recompute.
    """
    sub_offsets = np.zeros(len(fresh) + 1, dtype=np.int64)
    np.cumsum(
        tokens.offsets[fresh + 1] - tokens.offsets[fresh], out=sub_offsets[1:]
    )
    return tokens.flat[row_positions(tokens.offsets, fresh)], sub_offsets


def _splice_rows(
    old: np.ndarray,
    rowmap: RowMap,
    tokens: TokenTable,
    fn: Callable[[np.ndarray, np.ndarray, list[str]], np.ndarray],
) -> np.ndarray:
    """Rebuild a per-row score vector by copying kept rows.

    Only the fresh rows run ``fn`` (``score_tokenized``).
    """
    out = np.zeros(rowmap.row_count, dtype=old.dtype)
    for new_start, old_start, count in rowmap.runs:
        out[new_start : new_start + count] = old[old_start : old_start + count]
    fresh = rowmap.fresh
    if fresh.size:
        out[fresh] = fn(*_fresh_tokens(tokens, fresh), tokens.vocab)
    return out


def _splice_embeddings(
    old: EmbeddingRows,
    rowmap: RowMap,
    tokens: TokenTable,
    encoder: HashingSentenceEncoder,
) -> EmbeddingRows:
    """Rebuild compact embedding rows by copying kept rows' cells.

    Only the fresh rows are encoded.
    """
    fresh = encoder.encode_tokenized(
        *_fresh_tokens(tokens, rowmap.fresh), tokens.vocab
    )
    indptr, (data, cols) = splice_ragged(
        old.indptr,
        (old.data, old.cols),
        rowmap,
        fresh.indptr,
        (fresh.data, fresh.cols),
    )
    return EmbeddingRows(data=data, cols=cols, indptr=indptr, dim=old.dim)


def frames_of(dataset) -> DatasetFrames:
    """The dataset's memoized frames (built on first use).

    The cache rides on the dataset instance, so every analysis — across all
    experiments and the report — shares one set of tables.
    """
    frames = dataset.__dict__.get("_frames")
    if frames is None:
        frames = DatasetFrames(dataset)
        dataset.__dict__["_frames"] = frames
    return frames


def invalidate(dataset) -> None:
    """Drop the dataset's cached frames (call after mutating it)."""
    dataset.__dict__.pop("_frames", None)
