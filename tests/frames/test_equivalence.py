"""Frames-vs-oracle equivalence: the frames path's central contract.

Every experiment must render *byte-identical* output whether it runs on
the memoized columnar frames (:mod:`repro.frames`, the one production
path) or on the per-object loops they replaced, kept as oracles in
``tests/oracles/``.  The figure suite and the report are compared with
the oracles installed, every frames-backed analysis is compared with its
oracle result by result, and a custom encoder or scorer is held to the
oracle run with the same operator.

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
from repro.frames import build_timeline_table, frames_of, invalidate
from repro.nlp.embeddings import HashingSentenceEncoder
from repro.nlp.toxicity import PerspectiveScorer
from repro.twitter.models import Tweet
from tests.conftest import deep_eq, make_status, make_tweet
from tests.oracles import oracles_installed, twins

ALL_IDS = all_experiment_ids(include_extensions=True)

#: Oracle name -> (production function, oracle function).
TWINS = {oracle.__name__: (twin, oracle) for twin, oracle in twins().items()}

#: Operators other than the frames' defaults: a narrower embedding and a
#: lexicon that flags common migration words, so the thresholds bite.
CUSTOM_SCORER = PerspectiveScorer({"twitter": 0.6, "mastodon": 0.55, "the": 0.3})
CUSTOM_OPERATORS = {
    "content_similarity": {"encoder": HashingSentenceEncoder(dim=64)},
    "toxicity_analysis": {"scorer": CUSTOM_SCORER},
    "moderation_load": {"scorer": CUSTOM_SCORER},
}


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
    """The same outputs with every analysis on its oracle."""
    with oracles_installed():
        return suite_outputs(small_dataset)


@pytest.fixture(scope="module", params=["frames", "naive"])
def reloaded_outputs(request, small_npz) -> dict[str, str]:
    """Suite outputs on a fresh ``.npz`` reload, on frames or the oracles."""
    dataset = MigrationDataset.load(small_npz)
    if request.param == "naive":
        with oracles_installed():
            return suite_outputs(dataset)
    return suite_outputs(dataset)


@pytest.mark.parametrize("exp_id", ALL_IDS)
def test_experiment_identical(exp_id, frames_outputs, naive_outputs):
    assert frames_outputs[exp_id] == naive_outputs[exp_id]


def test_report_identical(frames_outputs, naive_outputs):
    assert frames_outputs["report"] == naive_outputs["report"]


def test_oracles_build_no_frames(small_npz):
    """The oracle suite reads post objects, never a frames product or
    result, so the comparisons above are between two paths."""
    dataset = MigrationDataset.load(small_npz)
    with oracles_installed():
        suite_outputs(dataset)
    frames = frames_of(dataset)
    assert frames.build_stats() == {}
    assert frames.cache_stats()["entries"] == 0
    assert dataset.mastodon_timelines.built_count > 0


@pytest.mark.parametrize("name", sorted(TWINS))
def test_analysis_equals_oracle(name, small_dataset):
    production, oracle = TWINS[name]
    assert deep_eq(production(small_dataset), oracle(small_dataset))


def test_frames_are_memoized(small_dataset):
    assert frames_of(small_dataset) is frames_of(small_dataset)


def test_invalidate_drops_cached_frames(small_dataset):
    before = frames_of(small_dataset)
    invalidate(small_dataset)
    after = frames_of(small_dataset)
    assert after is not before
    # rebuilt frames still agree with the old instance's products
    assert after.instance_populations == before.instance_populations


@pytest.mark.parametrize("source", ["memory", "reload"])
@pytest.mark.parametrize("name", sorted(CUSTOM_OPERATORS))
def test_custom_operator_equals_oracle(name, source, small_dataset, small_npz):
    """A custom encoder/scorer runs over the frames' token tables and gives
    the oracle's result with the same operator; on a reload it builds no
    post."""
    dataset = small_dataset if source == "memory" else MigrationDataset.load(small_npz)
    production, oracle = TWINS[name]
    got = production(dataset, **CUSTOM_OPERATORS[name])
    if source == "reload":
        for timelines in (dataset.twitter_timelines, dataset.mastodon_timelines):
            assert timelines.built_count == 0
    assert deep_eq(got, oracle(small_dataset, **CUSTOM_OPERATORS[name]))


def test_custom_scorer_bypasses_frames(small_dataset):
    """A custom scorer/encoder bypasses the frames' caches: it neither
    reads nor writes the default operator's result-cache entry, and its
    result is not the default one."""
    frames = frames_of(small_dataset)
    for name, operators in CUSTOM_OPERATORS.items():
        production, _ = TWINS[name]
        default = production(small_dataset)
        stats = frames.cache_stats()
        custom = production(small_dataset, **operators)
        assert frames.cache_stats() == stats, name
        assert not deep_eq(custom, default), name
        assert production(small_dataset) is default, name


def test_reloaded_suite_identical(reloaded_outputs, frames_outputs):
    assert reloaded_outputs.keys() == frames_outputs.keys()
    for key, text in reloaded_outputs.items():
        assert text == frames_outputs[key], f"{key} differs after an .npz reload"


def test_reloaded_frames_suite_builds_no_post(small_npz):
    """The figure suite and the report read tables and keys only; an
    analysis that walks post objects again on frames fails here."""
    dataset = MigrationDataset.load(small_npz)
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
