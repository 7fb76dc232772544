"""``DatasetFrames.rebase``: splice the delta, reproduce cold frames bitwise.

After one clock advance, a rebased frames instance must hold the same
bytes a cold build over the advanced dataset produces — for every
columnar product and for every analysis run on top.  The one sanctioned
exception is token-vocabulary *order*: rebase keeps the old vocabulary
append-only (vocab ids are not output-visible; the scorers read tokens
through vocabulary strings), so token tables are compared per row as
strings, plus offsets and vocabulary as a set.

Both a quiet day (corpus unchanged — most products carried verbatim) and
a busy day (corpus append + new matches — most products rebuilt or
spliced) are exercised, the busy day also from a base snapshot reloaded
from ``.npz``, whose frames were built from the archive columns.
Selective invalidation and its counter are covered at the bottom.
"""

from __future__ import annotations

import dataclasses
import datetime as dt
import gc
import weakref

import numpy as np
import pytest

from repro.analysis.activity import daily_volume
from repro.analysis.content import content_similarity
from repro.analysis.hashtags import top_hashtags
from repro.analysis.moderation import moderation_load
from repro.analysis.toxicity import toxicity_analysis
from repro.collection.binfmt import ColumnTimelines
from repro.collection.dataset import MigrationDataset
from repro.collection.pipeline import CollectionConfig
from repro.errors import AnalysisError
from repro.frames.core import DatasetFrames, frames_of
from repro.incremental import advance, collect_with_cursor
from repro.nlp.embeddings import EmbeddingRows
from repro.serving.app import ServingApp
from repro.simulation.config import SimConfig
from repro.simulation.world import build_world
from tests.conftest import assert_rows_identical, deep_eq

SEED = 7
SCALE = 0.002

#: (from, to) day pairs: a busy advance (corpus grows, matches appear)
#: and a quiet one (corpus closed, only timelines/trends move).
DAY_PAIRS = {
    "busy": (dt.date(2022, 11, 10), dt.date(2022, 11, 11)),
    "quiet": (dt.date(2022, 11, 24), dt.date(2022, 11, 25)),
}
#: Cases: each day pair from an in-memory base, and the busy day from a
#: base saved to and reloaded from ``.npz``.
CASES = {
    "busy": ("busy", False),
    "quiet": ("quiet", False),
    "busy-reloaded": ("busy", True),
}

PRODUCTS = (
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
    "collected_day_ordinals",
    "timeline_offsets",
    "profile_table",
    "edge_table",
    "instance_populations",
    "weekly_aggregate",
)


def _warm(frames: DatasetFrames) -> None:
    for name in PRODUCTS:
        getattr(frames, name)


def _analyses(dataset) -> dict:
    return {
        "daily_volume": daily_volume(dataset),
        "top_hashtags": top_hashtags(dataset),
        "toxicity": toxicity_analysis(dataset),
        "moderation": moderation_load(dataset),
        "similarity": content_similarity(dataset),
    }


@pytest.fixture(scope="module")
def world():
    return build_world(SimConfig(seed=SEED, scale=SCALE))


@pytest.fixture(scope="module", params=sorted(CASES), ids=sorted(CASES))
def pair(world, request, tmp_path_factory):
    """(rebased frames, cold frames, advanced dataset, cold dataset, delta)."""
    day_pair, reloaded = CASES[request.param]
    from_clock, to_clock = DAY_PAIRS[day_pair]
    base, cursor = collect_with_cursor(
        world, CollectionConfig(clock=from_clock)
    )
    if reloaded:
        path = tmp_path_factory.mktemp("base") / "base.npz"
        base.save(path)
        base = MigrationDataset.load(path)
    warm = frames_of(base)
    _warm(warm)
    _analyses(base)
    if reloaded:
        for timelines in (base.twitter_timelines, base.mastodon_timelines):
            assert isinstance(timelines, ColumnTimelines)
            assert timelines.built_count == 0  # frames came from the columns
    new_ds, _, delta = advance(world, base, cursor, to_clock)
    rebased = warm.rebase(new_ds, delta)
    cold_ds, _ = collect_with_cursor(world, CollectionConfig(clock=to_clock))
    return rebased, frames_of(cold_ds), new_ds, cold_ds, delta


def _token_rows(tokens) -> list[tuple[str, ...]]:
    return [
        tuple(
            tokens.vocab[t]
            for t in tokens.flat[tokens.offsets[i] : tokens.offsets[i + 1]]
        )
        for i in range(tokens.text_count)
    ]


class TestRebaseBitIdentity:
    @pytest.mark.parametrize("side", ["tweet", "status"])
    def test_timeline_tables(self, pair, side):
        rebased, cold = pair[0], pair[1]
        rt = getattr(rebased, f"{side}_table")
        ct = getattr(cold, f"{side}_table")
        for column in (
            "uids",
            "bounds",
            "day_ordinals",
            "row_uids",
            "label_ids",
            "labels",
            "flags",
            "texts",
            "tag_rows",
            "tag_ids",
            "tags",
            "acct_ids",
            "accts",
        ):
            assert deep_eq(getattr(rt, column), getattr(ct, column)), (
                f"{side}_table.{column} diverged after rebase"
            )
        if side == "status":
            assert rt.acct_ids.dtype == np.int32
            assert len(rt.acct_ids) == rt.row_count

    @pytest.mark.parametrize("side", ["tweet", "status"])
    def test_token_tables_row_equivalent(self, pair, side):
        rebased, cold = pair[0], pair[1]
        rtok = getattr(rebased, f"{side}_tokens")
        ctok = getattr(cold, f"{side}_tokens")
        assert deep_eq(rtok.offsets, ctok.offsets)
        assert sorted(rtok.vocab) == sorted(ctok.vocab)
        assert _token_rows(rtok) == _token_rows(ctok)

    @pytest.mark.parametrize(
        "name",
        [
            "tweet_toxicity",
            "status_toxicity",
            "tweet_embeddings",
            "status_embeddings",
            "tweet_day_iso",
            "status_day_iso",
            "collected_day_ordinals",
            "timeline_offsets",
            "profile_table",
            "edge_table",
            "instance_populations",
            "weekly_aggregate",
        ],
    )
    def test_derived_products(self, pair, name):
        rebased, cold = pair[0], pair[1]
        assert deep_eq(getattr(rebased, name), getattr(cold, name)), (
            f"{name} diverged after rebase"
        )

    @pytest.mark.parametrize("side", ["tweet", "status"])
    def test_embedding_rows_field_by_field(self, pair, side):
        rebased, cold = pair[0], pair[1]
        got = getattr(rebased, f"{side}_embeddings")
        assert isinstance(got, EmbeddingRows)
        assert_rows_identical(got, getattr(cold, f"{side}_embeddings"))

    def test_analyses_equal(self, pair):
        _, _, new_ds, cold_ds, _ = pair
        assert deep_eq(_analyses(new_ds), _analyses(cold_ds))

    def test_rebase_installed_on_advanced_dataset(self, pair):
        rebased, _, new_ds, _, _ = pair
        assert frames_of(new_ds) is rebased

    def test_stale_results_counted(self, pair):
        rebased, _, _, _, delta = pair
        # the advance always moves trends, so at least the timeline- and
        # trend-dependent results could not be carried
        assert delta.domains_changed()
        assert rebased.cache_stats()["invalidations"] > 0


class TestSelectiveInvalidate:
    @pytest.fixture()
    def warm_frames(self, small_dataset) -> DatasetFrames:
        frames = DatasetFrames(small_dataset)
        frames.tweet_toxicity  # builds tweet_table + tweet_tokens too
        frames.edge_table
        frames.result(("daily_volume",), lambda: "volume")
        frames.result(("tag_counts", "twitter"), lambda: "tags")
        frames.result(("custom_probe",), lambda: "unknown-deps")
        return frames

    def test_product_closure_dropped(self, warm_frames):
        out = warm_frames.invalidate(products=["tweet_table"])
        # tweet_table plus its dependents (tokens, toxicity), and every
        # result whose inputs intersect the table's domains — the
        # unknown-deps entry goes too (safety: unknown means stale)
        assert out["products"] == 3
        assert out["results"] == 3
        assert warm_frames.cache_stats()["invalidations"] == 3

    def test_analysis_family_dropped(self, warm_frames):
        out = warm_frames.invalidate(analyses=["daily_volume"])
        assert out == {"products": 0, "results": 1}
        # the other results survived
        hits_before = warm_frames.cache_stats()["hits"]
        warm_frames.result(("tag_counts", "twitter"), lambda: "rebuilt")
        assert warm_frames.cache_stats()["hits"] == hits_before + 1

    def test_domain_invalidation(self, warm_frames):
        out = warm_frames.invalidate(domains={"followees"})
        assert out["products"] == 1  # edge_table
        assert out["results"] == 1  # the unknown-deps probe entry
        assert warm_frames.cache_stats()["invalidations"] == 1

    def test_disjoint_domain_keeps_everything(self, warm_frames):
        out = warm_frames.invalidate(domains={"weekly"})
        assert out == {"products": 0, "results": 1}  # unknown-deps only
        stats = warm_frames.cache_stats()
        assert stats["invalidations"] == 1


def test_superseded_snapshot_is_freed_without_cyclic_collection(world):
    """Frames hold their dataset weakly: after a day's advance, rebase and
    hot swap, dropping the old snapshot frees it at once, with the cyclic
    collector off."""
    from_clock, to_clock = DAY_PAIRS["busy"]
    base, cursor = collect_with_cursor(
        world, CollectionConfig(clock=from_clock)
    )
    app = ServingApp(base)
    app.warm()
    _warm(frames_of(base))
    _analyses(base)
    gc.collect()
    gc.disable()
    try:
        new_ds, cursor, delta = advance(world, base, cursor, to_clock)
        app.swap_dataset(new_ds, delta)
        superseded = weakref.ref(base)
        del base
        assert superseded() is None
        assert app.get("/healthz")[0] == 200
    finally:
        gc.enable()


def test_frames_outliving_their_dataset_raise(tiny_dataset):
    frames = DatasetFrames(dataclasses.replace(tiny_dataset))
    with pytest.raises(AnalysisError, match="outlived"):
        frames.tweet_table
