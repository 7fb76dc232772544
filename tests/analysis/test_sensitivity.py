"""Tests for repro.analysis.sensitivity."""

import datetime as dt

import pytest

from repro.analysis.sensitivity import (
    ordering_robust,
    similarity_sweep,
    toxicity_sweep,
)
from repro.collection.dataset import MigrationDataset
from repro.errors import AnalysisError
from tests.conftest import make_status, make_tweet
from tests.oracles import oracles_installed

DAY = dt.date(2022, 11, 5)


@pytest.fixture
def dataset(tiny_dataset):
    tiny_dataset.twitter_timelines = {
        1: [
            make_tweet(1, 1, DAY, "what a moron and a loser honestly"),
            make_tweet(2, 1, DAY, "election vote parliament policy debate"),
        ],
    }
    tiny_dataset.mastodon_timelines = {
        1: [
            make_status(3, "alice@mastodon.social", DAY,
                        "election vote parliament policy today"),
            make_status(4, "alice@mastodon.social", DAY,
                        "gallery sketch exhibition print canvas"),
        ],
    }
    return tiny_dataset


class TestSimilaritySweep:
    def test_monotone_in_threshold(self, dataset):
        rows = similarity_sweep(dataset)
        similar = [r.mean_pct_similar for r in rows]
        assert similar == sorted(similar, reverse=True)
        different = [r.pct_users_all_different for r in rows]
        assert different == sorted(different)

    def test_thresholds_sorted_in_output(self, dataset):
        rows = similarity_sweep(dataset, thresholds=(0.9, 0.5, 0.7))
        assert [r.threshold for r in rows] == [0.5, 0.7, 0.9]

    def test_empty_thresholds_rejected(self, dataset):
        with pytest.raises(AnalysisError):
            similarity_sweep(dataset, thresholds=())


class TestToxicitySweep:
    def test_monotone_in_threshold(self, dataset):
        rows = toxicity_sweep(dataset)
        tweets = [r.pct_tweets_toxic for r in rows]
        assert tweets == sorted(tweets, reverse=True)

    def test_twitter_excess(self, dataset):
        rows = toxicity_sweep(dataset, thresholds=(0.4,))
        assert rows[0].twitter_excess == pytest.approx(
            rows[0].pct_tweets_toxic - rows[0].pct_statuses_toxic
        )

    def test_empty_thresholds_rejected(self, dataset):
        with pytest.raises(AnalysisError):
            toxicity_sweep(dataset, thresholds=())


class TestOrderingRobust:
    def test_all_zero_not_robust(self, dataset):
        rows = toxicity_sweep(dataset, thresholds=(0.99,))
        # at 0.99 nothing is toxic: no information, not "robust"
        if all(r.pct_tweets_toxic == 0 and r.pct_statuses_toxic == 0 for r in rows):
            assert not ordering_robust(rows)

    def test_on_simulated_data(self, small_dataset):
        """The paper's Twitter>Mastodon ordering is threshold-robust."""
        rows = toxicity_sweep(small_dataset)
        assert ordering_robust(rows)


@pytest.mark.parametrize("sweep", [similarity_sweep, toxicity_sweep])
def test_sweep_on_a_reload_builds_no_post(sweep, small_dataset, small_npz):
    """With the default operators every threshold reads the frames' cached
    products, so a reload builds no post, and the rows equal the per-object
    oracle's."""
    reloaded = MigrationDataset.load(small_npz)
    rows = sweep(reloaded)
    for timelines in (reloaded.twitter_timelines, reloaded.mastodon_timelines):
        assert timelines.built_count == 0
    with oracles_installed():
        assert rows == sweep(small_dataset)
