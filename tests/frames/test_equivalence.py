"""Frames-vs-naive equivalence: the tentpole's central contract.

Every experiment must render *byte-identical* output whether it runs on
the memoized columnar frames (:mod:`repro.frames`) or on the original
per-object loops.  The naive path stays reachable two ways — the global
``frames_disabled()`` switch and the per-call ``frames=None`` escape
hatch — and both are pinned here against the frames output on the shared
simulated dataset.

A dataset reloaded from ``.npz`` keeps its timelines as archive columns
(:class:`~repro.collection.binfmt.ColumnTimelines`) and the frames build
their timeline tables straight from them; the same outputs, the same
tables and not one post object built are pinned here too.
"""

from __future__ import annotations

import dataclasses
import datetime as dt

import numpy as np
import pytest

from repro.analysis.report import format_report, headline_report
from repro.collection.binfmt import ColumnTimelines
from repro.collection.dataset import MigrationDataset
from repro.experiments.registry import all_experiment_ids, get_experiment
from repro.fediverse.models import Status
from repro.frames import build_timeline_table, frames_disabled, frames_of, invalidate
from repro.twitter.models import Tweet
from tests.conftest import make_status, make_tweet

ALL_IDS = all_experiment_ids(include_extensions=True)


def suite_outputs(dataset) -> dict[str, str]:
    """Every figure's format() string plus the formatted headline report."""
    outputs = {
        exp_id: get_experiment(exp_id)(dataset).format() for exp_id in ALL_IDS
    }
    outputs["report"] = format_report(headline_report(dataset))
    return outputs


@pytest.fixture(scope="module")
def frames_outputs(small_dataset) -> dict[str, str]:
    """Every figure's format() string computed on the frames path."""
    invalidate(small_dataset)
    return suite_outputs(small_dataset)


@pytest.fixture(scope="module")
def naive_outputs(small_dataset) -> dict[str, str]:
    """The same outputs with frames globally disabled."""
    with frames_disabled():
        return suite_outputs(small_dataset)


@pytest.fixture(scope="module")
def npz_path(small_dataset, tmp_path_factory):
    path = tmp_path_factory.mktemp("reload") / "small.npz"
    small_dataset.save(path)
    return path


@pytest.fixture(scope="module", params=["frames", "naive"])
def reloaded_outputs(request, npz_path) -> dict[str, str]:
    """Suite outputs on a fresh ``.npz`` reload, on frames or naive."""
    dataset = MigrationDataset.load(npz_path)
    if request.param == "naive":
        with frames_disabled():
            return suite_outputs(dataset)
    return suite_outputs(dataset)


@pytest.mark.parametrize("exp_id", ALL_IDS)
def test_experiment_identical(exp_id, frames_outputs, naive_outputs):
    assert frames_outputs[exp_id] == naive_outputs[exp_id]


def test_report_identical(frames_outputs, naive_outputs):
    assert frames_outputs["report"] == naive_outputs["report"]


def test_frames_none_escape_hatch(small_dataset, frames_outputs):
    """``frames=None`` forces the naive loops even with frames enabled."""
    from repro.analysis.activity import daily_volume
    from repro.analysis.hashtags import top_hashtags
    from repro.analysis.sources import top_sources
    from repro.analysis.toxicity import toxicity_analysis

    assert daily_volume(small_dataset, frames=None) == daily_volume(small_dataset)
    assert top_hashtags(small_dataset, frames=None) == top_hashtags(small_dataset)
    assert top_sources(small_dataset, frames=None) == top_sources(small_dataset)
    naive_tox = toxicity_analysis(small_dataset, frames=None)
    framed_tox = toxicity_analysis(small_dataset)
    assert naive_tox.pct_tweets_toxic == framed_tox.pct_tweets_toxic
    assert naive_tox.pct_statuses_toxic == framed_tox.pct_statuses_toxic
    assert (
        naive_tox.twitter_toxic_fraction.xs.tolist()
        == framed_tox.twitter_toxic_fraction.xs.tolist()
    )


def test_frames_are_memoized(small_dataset):
    assert frames_of(small_dataset) is frames_of(small_dataset)


def test_invalidate_drops_cached_frames(small_dataset):
    before = frames_of(small_dataset)
    invalidate(small_dataset)
    after = frames_of(small_dataset)
    assert after is not before
    # rebuilt frames still agree with the old instance's products
    assert after.instance_populations == before.instance_populations


def test_custom_scorer_bypasses_frames(small_dataset):
    """A non-default scorer/encoder must not read the cached products."""
    from repro.analysis.toxicity import toxicity_analysis
    from repro.nlp.toxicity import PerspectiveScorer

    default = toxicity_analysis(small_dataset)
    custom = toxicity_analysis(small_dataset, scorer=PerspectiveScorer())
    assert custom.pct_tweets_toxic == default.pct_tweets_toxic
    assert custom.pct_users_toxic_on_both == default.pct_users_toxic_on_both


def test_reloaded_suite_identical(reloaded_outputs, frames_outputs):
    assert reloaded_outputs.keys() == frames_outputs.keys()
    for key, text in reloaded_outputs.items():
        assert text == frames_outputs[key], f"{key} differs after an .npz reload"


def test_reloaded_frames_suite_builds_no_post(npz_path):
    """The figure suite and the report read tables and keys only; an
    analysis that walks post objects again on frames fails here."""
    dataset = MigrationDataset.load(npz_path)
    suite_outputs(dataset)
    for name in ("twitter_timelines", "mastodon_timelines"):
        timelines = getattr(dataset, name)
        assert isinstance(timelines, ColumnTimelines)
        assert timelines.built_count == 0, f"the suite built {name} posts"


def assert_tables_equal(got, expected) -> None:
    for field in dataclasses.fields(got):
        a, b = getattr(got, field.name), getattr(expected, field.name)
        if isinstance(b, np.ndarray):
            assert isinstance(a, np.ndarray) and a.dtype == b.dtype, field.name
            assert np.array_equal(a, b), field.name
        else:
            assert a == b and type(a) is type(b), field.name


def hostile_dataset() -> MigrationDataset:
    """Texts that trip a tag scan over joined texts, tagged boosts, and a
    pre-epoch retweet."""
    day = dt.date(2022, 11, 3)
    ds = MigrationDataset()
    ds.twitter_timelines = {
        7: [
            make_tweet(1, 7, day, "this ends in #"),
            make_tweet(2, 7, day, "word after it #Fédiverse #日本語 x#y"),
            make_tweet(3, 7, day, "tag at the end #abc"),
            make_tweet(4, 7, day, "def glued on? #ŞEHİR\n#next_line #", "Moa"),
        ],
        8: [],
        9: [
            make_tweet(5, 9, day, "#İstanbul and #straße, #Straße"),
            Tweet(
                tweet_id=6,
                author_id=9,
                created_at=dt.datetime(1969, 12, 31, 23, 59, 59, 999999),
                text="RT a pre-epoch #retweet",
                source="Moa",
                is_retweet=True,
            ),
        ],
    }
    ds.mastodon_timelines = {
        7: [
            Status(
                status_id=10,
                account_acct="a@x.social",
                created_at=dt.datetime(2022, 11, 3, 8, 0),
                text="boosted #hidden #also",
                reblog_of_id=3,
            ),
            make_status(11, "b@y.social", day, "own #Visible #", "Moa"),
        ],
        8: [],
        9: [make_status(12, "a@x.social", day, "#shown again #Shown")],
    }
    return ds


@pytest.mark.parametrize("source", ["hostile", "small"])
def test_column_tables_equal_object_tables(source, small_dataset, tmp_path):
    dataset = hostile_dataset() if source == "hostile" else small_dataset
    path = tmp_path / "dataset.npz"
    dataset.save(path)
    loaded = MigrationDataset.load(path)
    for name, attrs in (
        ("twitter_timelines", ("source", "is_retweet")),
        ("mastodon_timelines", ("application", "is_boost", "account_acct")),
    ):
        columns = getattr(loaded, name)
        assert columns.columns is not None
        got = build_timeline_table(columns, *attrs)
        assert columns.built_count == 0  # the column path was taken
        assert_tables_equal(got, build_timeline_table(getattr(dataset, name), *attrs))
    if source == "hostile":
        status_tags = build_timeline_table(
            loaded.mastodon_timelines, "application", "is_boost", "account_acct"
        ).tags
        assert status_tags == ["visible", "shown"]  # the boost's tags are not


def test_column_tables_refuse_unstored_attributes(tmp_path):
    """An archive column holds one post attribute; a table asking for
    another must not silently get that column."""
    path = tmp_path / "dataset.npz"
    hostile_dataset().save(path)
    loaded = MigrationDataset.load(path)
    with pytest.raises(ValueError, match="archive's columns hold"):
        build_timeline_table(loaded.twitter_timelines, "lang", "is_retweet")
    with pytest.raises(ValueError, match="archive's columns hold"):
        build_timeline_table(loaded.mastodon_timelines, "application", "is_boost")
